package specsched

// Option configures a Simulator. Concrete options come from this
// package's constructors: the WithX family for simulator-only axes, and
// the shared CommonOption constructors (Warmup, Measure) for axes a Sweep
// has too.
type Option interface {
	applySimulator(*Simulator)
}

// SweepOption configures a Sweep. Concrete options come from the SweepX
// constructors for sweep-only axes and the shared CommonOption
// constructors for axes a Simulator has too.
type SweepOption interface {
	applySweep(*Sweep)
}

// simOptionFunc adapts a Simulator mutation into an Option.
type simOptionFunc func(*Simulator)

func (f simOptionFunc) applySimulator(s *Simulator) { f(s) }

// sweepOptionFunc adapts a Sweep mutation into a SweepOption.
type sweepOptionFunc func(*Sweep)

func (f sweepOptionFunc) applySweep(s *Sweep) { f(s) }

// CommonOption configures an axis that single-run simulators and sweep
// grids share: the simulation window. It satisfies both Option and
// SweepOption, so one value (or one []CommonOption, spread at both call
// sites) drives NewSimulator and NewSweep identically. SweepWarmup and
// SweepMeasure remain as deprecated aliases of the window options.
type CommonOption struct {
	sim   func(*Simulator)
	sweep func(*Sweep)
}

func (o CommonOption) applySimulator(s *Simulator) { o.sim(s) }
func (o CommonOption) applySweep(s *Sweep)         { o.sweep(s) }

// Warmup sets the warmup window in committed µ-ops — the cache- and
// predictor-warming run before the measurement window opens. For sweeps
// it applies to every cell.
func Warmup(uops int64) CommonOption {
	return CommonOption{
		sim:   func(s *Simulator) { s.warmup = uops },
		sweep: func(s *Sweep) { s.spec.Warmup = &uops },
	}
}

// Measure sets the measurement window length in committed µ-ops. For
// sweeps it applies to every cell.
func Measure(uops int64) CommonOption {
	return CommonOption{
		sim:   func(s *Simulator) { s.measure = uops },
		sweep: func(s *Sweep) { s.spec.Measure = &uops },
	}
}
