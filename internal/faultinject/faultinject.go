// Package faultinject provides deterministic fault plans for chaos-testing
// the sweep orchestration layer. A Plan is a pure function from (seed, cell
// key, attempt) to a fault kind, built on the same splitmix64 finalizer the
// sweep uses for seed derivation, so a fault schedule is reproducible from
// its seed alone: the same plan injects the same panics, hangs, transient
// errors, trace corruptions, and torn checkpoint writes on every run,
// regardless of worker count or scheduling order. internal/sim threads a
// Plan through Pool (cell faults) and Checkpoint (torn writes); every
// recovery path the resilience machinery implements is exercised in CI
// through plans, not through races won by sleeping.
package faultinject

import (
	"fmt"
	"hash/fnv"
	"io"
)

// Kind enumerates the injectable faults.
type Kind uint8

const (
	// None injects nothing; the attempt runs normally.
	None Kind = iota
	// Panic makes the cell goroutine panic mid-attempt (exercises the
	// pool's panic containment and retry classification).
	Panic
	// Hang blocks the cell until its context is canceled (exercises the
	// cell timeout, the stall watchdog, and the abandoned-goroutine
	// budget).
	Hang
	// Transient fails the cell with an error that classifies as
	// retryable (models a worker that returned garbage once).
	Transient
	// CorruptTrace fails the cell as if its recorded trace body failed
	// its digest check — a permanent failure that must NOT be retried.
	CorruptTrace
	// TornWrite applies to checkpoint flushes, not cells: the flush
	// writes only a prefix of its batch of records and skips fsync,
	// modeling a crash mid-write (exercises salvage on resume, and the
	// next flush writing over the torn tail).
	TornWrite
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Panic:
		return "panic"
	case Hang:
		return "hang"
	case Transient:
		return "transient"
	case CorruptTrace:
		return "corrupt-trace"
	case TornWrite:
		return "torn-write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ErrTransient is the injected transient failure. It implements the
// Transient() classification interface the pool's retry policy recognizes,
// so injected transients retry exactly like real ones would.
var ErrTransient error = &transientError{}

type transientError struct{}

func (*transientError) Error() string   { return "faultinject: injected transient failure" }
func (*transientError) Transient() bool { return true }

// Plan is a deterministic fault schedule. The zero value (and a nil plan)
// injects nothing. Rates are probabilities in [0, 1] evaluated
// independently per (cell key, attempt) for cell faults and per flush
// index for torn writes; their sum across kinds should not exceed 1 (the
// draw is cumulative: panic wins over hang wins over transient wins over
// corrupt-trace).
type Plan struct {
	// Seed anchors every draw. Two plans with equal seeds and rates are
	// the same schedule.
	Seed uint64

	// Per-attempt cell fault rates.
	PanicRate        float64
	HangRate         float64
	TransientRate    float64
	CorruptTraceRate float64

	// TornWriteRate is the probability that one checkpoint flush writes
	// a truncated, unsynced batch.
	TornWriteRate float64

	// MaxFaultsPerCell bounds how many leading attempts of one cell may
	// fault (0 means the default of 2). Attempts beyond the bound never
	// fault, so any retry policy allowing MaxFaultsPerCell+1 attempts is
	// guaranteed to converge on transient kinds.
	MaxFaultsPerCell int
}

// maxFaults returns the effective per-cell fault bound.
func (p *Plan) maxFaults() int {
	if p.MaxFaultsPerCell <= 0 {
		return 2
	}
	return p.MaxFaultsPerCell
}

// Enabled reports whether the plan can inject any cell fault at all.
func (p *Plan) Enabled() bool {
	return p != nil &&
		(p.PanicRate > 0 || p.HangRate > 0 || p.TransientRate > 0 || p.CorruptTraceRate > 0)
}

// Cell returns the fault for one attempt (1-based) of the cell identified
// by key. A nil plan, or an attempt past MaxFaultsPerCell, returns None.
func (p *Plan) Cell(key string, attempt int) Kind {
	if p == nil || attempt > p.maxFaults() {
		return None
	}
	x := p.draw("cell", key, attempt)
	for _, f := range [...]struct {
		rate float64
		kind Kind
	}{
		{p.PanicRate, Panic},
		{p.HangRate, Hang},
		{p.TransientRate, Transient},
		{p.CorruptTraceRate, CorruptTrace},
	} {
		if x < f.rate {
			return f.kind
		}
		x -= f.rate
	}
	return None
}

// Torn reports whether the flush-th checkpoint flush (0-based) should be
// written torn: a truncated batch, no fsync.
func (p *Plan) Torn(flush int) bool {
	if p == nil || p.TornWriteRate <= 0 {
		return false
	}
	return p.draw("torn", "", flush) < p.TornWriteRate
}

// Corrupt returns a copy of data with one byte flipped at a position drawn
// deterministically from (seed, key) — a reproducible way to damage a
// trace or checkpoint body in tests. Empty input is returned unchanged.
func (p *Plan) Corrupt(data []byte, key string) []byte {
	out := append([]byte(nil), data...)
	if p == nil || len(out) == 0 {
		return out
	}
	pos := int(p.mix("corrupt", key, 0) % uint64(len(out)))
	out[pos] ^= 0xa5
	return out
}

// draw maps (domain, key, n) to a uniform float64 in [0, 1).
func (p *Plan) draw(domain, key string, n int) float64 {
	return float64(p.mix(domain, key, n)>>11) / (1 << 53)
}

// mix hashes the draw coordinates through FNV-64a and the splitmix64
// finalizer — the identical derivation style sim.DeriveSeed uses, so fault
// schedules inherit its distribution quality.
func (p *Plan) mix(domain, key string, n int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, domain)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return splitmix64(p.Seed ^ h.Sum64() ^ (uint64(n) * 0x9e3779b97f4a7c15))
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mixer (same constants as internal/sim).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
