// Package uop defines the dynamic micro-operation (µ-op) model consumed by
// the trace-driven out-of-order core simulator.
//
// A µ-op carries everything the timing model needs — operation class,
// architectural source and destination registers, the effective address of
// memory operations, and branch outcome/target — but no data values:
// the simulator models time, not semantics.
package uop

import "fmt"

// Class enumerates µ-op execution classes. Each class maps to a functional
// unit family and a fixed execution latency (loads and stores have variable
// memory latency on top of the fixed AGU/access component).
type Class uint8

// µ-op classes, mirroring the functional units of the simulated core
// (Table 1 of the paper): 4×ALU(1c), 1×MulDiv(3c/25c unpipelined divide),
// 2×FP(3c), 2×FPMulDiv(5c/10c unpipelined divide), 2×Ld/Str AGU of which at
// most one store per cycle.
const (
	ClassNop Class = iota
	ClassALU
	ClassMul
	ClassDiv
	ClassFP
	ClassFPMul
	ClassFPDiv
	ClassLoad
	ClassStore
	ClassBranch
	numClasses
)

// NumClasses is the number of distinct µ-op classes.
const NumClasses = int(numClasses)

var classNames = [NumClasses]string{
	"nop", "alu", "mul", "div", "fp", "fpmul", "fpdiv", "load", "store", "branch",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Latency returns the fixed execution latency, in cycles, of the class.
// For loads this is the cache-access component only; the load-to-use latency
// is owned by the memory hierarchy. Divide latencies model unpipelined units.
func (c Class) Latency() int {
	switch c {
	case ClassALU, ClassBranch, ClassNop, ClassStore:
		return 1
	case ClassMul, ClassFP:
		return 3
	case ClassFPMul:
		return 5
	case ClassFPDiv:
		return 10
	case ClassDiv:
		return 25
	case ClassLoad:
		return 1 // AGU; memory latency is added by the hierarchy.
	default:
		return 1
	}
}

// Pipelined reports whether the functional unit executing this class accepts
// a new µ-op every cycle. Integer and FP divides are not pipelined.
func (c Class) Pipelined() bool {
	return c != ClassDiv && c != ClassFPDiv
}

// IsMem reports whether the µ-op accesses data memory.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// Architectural register file geometry. Registers [0, NumIntRegs) are
// integer, [NumIntRegs, NumArchRegs) are floating point. RegNone marks an
// absent operand.
const (
	NumIntRegs  = 32
	NumFPRegs   = 32
	NumArchRegs = NumIntRegs + NumFPRegs
	RegNone     = -1
)

// IsFPReg reports whether architectural register r belongs to the FP file.
func IsFPReg(r int) bool { return r >= NumIntRegs && r < NumArchRegs }

// UOp is one dynamic micro-operation of the simulated instruction stream.
type UOp struct {
	// Seq is the dynamic sequence number, unique and monotonically
	// increasing along the correct path. Wrong-path µ-ops have Seq == -1.
	Seq int64
	// PC is the (synthetic) program counter of the parent instruction.
	PC uint64
	// Class selects the functional unit and fixed latency.
	Class Class
	// Src1, Src2 are architectural source registers, or RegNone.
	Src1, Src2 int
	// Dest is the architectural destination register, or RegNone.
	Dest int
	// Addr is the effective byte address for loads and stores.
	Addr uint64
	// Size is the access size in bytes for loads and stores.
	Size uint8
	// Taken is the resolved direction for branches.
	Taken bool
	// Target is the resolved target for taken branches; for not-taken
	// branches it is the fall-through PC.
	Target uint64
	// WrongPath marks synthetic µ-ops injected after a branch
	// misprediction; they never commit.
	WrongPath bool
}

// HasDest reports whether the µ-op produces a register result.
func (u *UOp) HasDest() bool { return u.Dest != RegNone }

// validReg reports whether r is an architectural register index or RegNone.
func validReg(r int) bool { return r == RegNone || (r >= 0 && r < NumArchRegs) }

// Validate reports structurally impossible µ-ops: an unknown class or an
// out-of-range register operand. Generators are trusted to emit valid
// µ-ops; the trace codec (internal/traceio) and fuzz harnesses use this to
// reject records that cannot have come from a well-formed stream.
func (u *UOp) Validate() error {
	switch {
	case u.Class >= numClasses:
		return fmt.Errorf("uop %d: unknown class %d", u.Seq, uint8(u.Class))
	case !validReg(u.Src1):
		return fmt.Errorf("uop %d: source 1 register %d out of range", u.Seq, u.Src1)
	case !validReg(u.Src2):
		return fmt.Errorf("uop %d: source 2 register %d out of range", u.Seq, u.Src2)
	case !validReg(u.Dest):
		return fmt.Errorf("uop %d: destination register %d out of range", u.Seq, u.Dest)
	}
	return nil
}

// String renders a compact human-readable form, useful in tests and debug
// dumps.
func (u *UOp) String() string {
	switch {
	case u.Class.IsMem():
		return fmt.Sprintf("%d:%s pc=%#x addr=%#x d=%d s=[%d,%d]",
			u.Seq, u.Class, u.PC, u.Addr, u.Dest, u.Src1, u.Src2)
	case u.Class == ClassBranch:
		return fmt.Sprintf("%d:%s pc=%#x taken=%t tgt=%#x",
			u.Seq, u.Class, u.PC, u.Taken, u.Target)
	default:
		return fmt.Sprintf("%d:%s pc=%#x d=%d s=[%d,%d]",
			u.Seq, u.Class, u.PC, u.Dest, u.Src1, u.Src2)
	}
}

// Stream produces a dynamic µ-op stream. Implementations must be
// deterministic for a given construction seed.
type Stream interface {
	// NextInto writes the next correct-path µ-op over every field of dst.
	// It returns false, leaving dst unspecified, when the stream is
	// exhausted (streams used by the experiments are infinite and never
	// do).
	NextInto(dst *UOp) bool
}
