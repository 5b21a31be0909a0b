package specsched

// Option configures a Simulator. Concrete options come from this
// package's constructors: the WithX family and the window options Warmup
// and Measure.
type Option interface {
	applySimulator(*Simulator)
}

// SweepOption configures what a Sweep takes beyond its SweepSpec: a
// progress callback (SweepProgress) or shared in-process state
// (SweepCellCache), neither of which can be written as data. Every other
// sweep knob is a SweepSpec field.
type SweepOption interface {
	applySweep(*Sweep)
}

// simOptionFunc adapts a Simulator mutation into an Option.
type simOptionFunc func(*Simulator)

func (f simOptionFunc) applySimulator(s *Simulator) { f(s) }

// sweepOptionFunc adapts a Sweep mutation into a SweepOption.
type sweepOptionFunc func(*Sweep)

func (f sweepOptionFunc) applySweep(s *Sweep) { f(s) }

// Warmup sets the warmup window in committed µ-ops — the cache- and
// predictor-warming run before the measurement window opens. A sweep sets
// it per cell with SweepSpec.Warmup.
func Warmup(uops int64) Option {
	return simOptionFunc(func(s *Simulator) { s.warmup = uops })
}

// Measure sets the measurement window length in committed µ-ops. A sweep
// sets it per cell with SweepSpec.Measure.
func Measure(uops int64) Option {
	return simOptionFunc(func(s *Simulator) { s.measure = uops })
}
