package specsched

import (
	"specsched/internal/config"
	"specsched/internal/traceio"
)

// Scheduler selects the simulator-side wakeup/select implementation. Both
// implementations model the same machine cycle-exactly and produce
// bit-identical statistics; they differ only in simulator speed.
type Scheduler string

const (
	// SchedulerEvent is the event-driven implementation (consumer lists,
	// ready queues, timing wheels) — the default, and the fast one.
	SchedulerEvent Scheduler = "event"
	// SchedulerScan is the legacy per-cycle full-window scan, kept as the
	// differential-testing reference.
	SchedulerScan Scheduler = "scan"
)

// impl maps the public scheduler selector ("" selects the event default)
// to the internal implementation enum.
func (s Scheduler) impl() (config.SchedulerImpl, error) {
	switch s {
	case "", SchedulerEvent:
		return config.SchedEvent, nil
	case SchedulerScan:
		return config.SchedScan, nil
	}
	return 0, wrapErrf(ErrInvalidConfig, "specsched: unknown scheduler %q (want %q or %q)",
		s, SchedulerEvent, SchedulerScan)
}

// traceInfoFromHeader maps the internal trace header onto the public
// TraceInfo record.
func traceInfoFromHeader(h traceio.Header) TraceInfo {
	return TraceInfo{
		Version:       h.Version,
		Generator:     h.Generator,
		UOps:          h.Count,
		Digest:        h.Digest,
		WrongPathSeed: h.WrongPathSeed,
	}
}
