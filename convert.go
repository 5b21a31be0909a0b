package specsched

import (
	"reflect"
	"sync"
	"time"

	"specsched/internal/config"
	"specsched/internal/stats"
	"specsched/internal/traceio"
	"specsched/results"
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

// runFromStats copies the internal counter record into the public one,
// field by field matched on name. Every field of stats.Run must have an
// identically named and typed counterpart in results.Run (pinned by
// TestRunFieldParity); results.Run may carry extra public-only fields
// (Elapsed).
func runFromStats(sr *stats.Run) results.Run {
	var out results.Run
	ov := reflect.ValueOf(&out).Elem()
	sv := reflect.ValueOf(sr).Elem()
	for i, j := range runFieldPlan() {
		ov.Field(j).Set(sv.Field(i))
	}
	return out
}

// runFieldPlan maps each stats.Run field index to the index of its
// same-named results.Run field, resolved once per process.
var runFieldPlan = sync.OnceValue(func() []int {
	st := reflect.TypeFor[stats.Run]()
	rt := reflect.TypeFor[results.Run]()
	plan := make([]int, st.NumField())
	for i := range plan {
		f, ok := rt.FieldByName(st.Field(i).Name)
		if !ok {
			panic("specsched: results.Run lacks stats.Run field " + st.Field(i).Name)
		}
		plan[i] = f.Index[0]
	}
	return plan
})

// runFromStatsElapsed is runFromStats plus the wall-clock annotation.
func runFromStatsElapsed(sr *stats.Run, elapsed time.Duration) results.Run {
	out := runFromStats(sr)
	out.Elapsed = elapsed
	return out
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
