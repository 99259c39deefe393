package circuit

import "fmt"

// This file holds the generators for the MAC unit — the paper's unit
// of computation — in the two variants the evaluation exercises:
//
//   - MAC: the sequential signed multiply-accumulate garbled once per
//     matrix element (the outer loop of §4), with the accumulator held
//     in state wires exactly as TinyGarble holds DFF state.
//   - MACCombinational: a one-shot MAC with the accumulator exposed as
//     a third input word, used by unit tests and by the baseline
//     frameworks that re-garble a full netlist each round.
//
// The builder's folds make the MAC minimal as built: no AND is dead,
// constant-fed, a duplicate or reads a wire and its complement
// (TestMACIsMinimal).

// MACConfig parameterises a MAC netlist.
type MACConfig struct {
	// Width is the operand bit-width b (8, 16 or 32 in the paper).
	Width int
	// AccWidth is the accumulator bit-width; it must be at least
	// 2*Width to hold a full product. The paper's 32-bit fixed point
	// case studies accumulate into 2b bits with the tree multiplier
	// producing the full product.
	AccWidth int
	// Signed reads both operands as 2's complement (§4.3). Either way
	// the tree multiplier is the radix-4 Booth one, with unsigned x
	// recoded as a (b+1)-bit signed value, so signed operands need no
	// conditional negation.
	Signed bool
	// SerialMultiplier selects the TinyGarble-style serial multiplier
	// instead of the paper's tree multiplier for an unsigned MAC. The
	// netlists compute the same function; only the dependency structure
	// and the table count differ.
	SerialMultiplier bool
}

func (cfg MACConfig) validate() error {
	if cfg.Width <= 0 {
		return fmt.Errorf("circuit: MAC width %d must be positive", cfg.Width)
	}
	if cfg.AccWidth < 2*cfg.Width {
		return fmt.Errorf("circuit: accumulator width %d below full product width %d", cfg.AccWidth, 2*cfg.Width)
	}
	return nil
}

// mulAcc returns acc + x·a mod 2^AccWidth.
func (cfg MACConfig) mulAcc(b *Builder, acc, x, a Word) Word {
	if cfg.SerialMultiplier && !cfg.Signed {
		return b.Add(acc, b.ZeroExtend(b.MulSerialUnsigned(x, a), cfg.AccWidth))
	}
	return b.mulAccBooth(acc, x, a, cfg.Signed)
}

// MAC builds the sequential MAC unit: garbler input x (the model
// element), evaluator input a (the client element), and an AccWidth
// accumulator in state. Each round computes acc ← acc + x·a and
// outputs the new accumulator value.
func MAC(cfg MACConfig) (*Circuit, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := NewBuilder()
	x := b.GarblerInputs(cfg.Width)
	a := b.EvaluatorInputs(cfg.Width)
	acc := b.StateInputs(cfg.AccWidth)
	next := cfg.mulAcc(b, acc, x, a)
	b.StateOuts(next...)
	b.OutputWord(next)
	return b.Build()
}

// MustMAC builds the sequential MAC and panics on configuration error.
func MustMAC(cfg MACConfig) *Circuit {
	c, err := MAC(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// MACCombinational builds a one-shot MAC with the accumulator supplied
// as an extra garbler input word: out = accIn + x·a.
func MACCombinational(cfg MACConfig) (*Circuit, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := NewBuilder()
	x := b.GarblerInputs(cfg.Width)
	accIn := b.GarblerInputs(cfg.AccWidth)
	a := b.EvaluatorInputs(cfg.Width)
	out := cfg.mulAcc(b, accIn, x, a)
	b.OutputWord(out)
	return b.Build()
}

// CheckRange reports whether v is a width-bit operand: two's
// complement when signed, unsigned otherwise.
func CheckRange(v int64, width int, signed bool) error {
	kind, lo, hi := "unsigned", int64(0), int64(1)<<width-1
	if signed {
		kind, lo, hi = "signed", -(int64(1) << (width - 1)), int64(1)<<(width-1)-1
	}
	if v < lo || v > hi {
		return fmt.Errorf("value %d outside %s %d-bit range [%d, %d]", v, kind, width, lo, hi)
	}
	return nil
}

// Uint64ToBits encodes the low width bits of v little-endian.
func Uint64ToBits(v uint64, width int) []bool {
	bits := make([]bool, width)
	for i := range bits {
		bits[i] = v>>uint(i)&1 == 1
	}
	return bits
}

// Int64ToBits encodes v as width-bit 2's complement, little-endian.
func Int64ToBits(v int64, width int) []bool {
	return Uint64ToBits(uint64(v), width)
}

// BitsToUint64 decodes up to 64 little-endian bits as unsigned.
func BitsToUint64(bits []bool) uint64 {
	var v uint64
	for i, b := range bits {
		if b && i < 64 {
			v |= 1 << uint(i)
		}
	}
	return v
}

// BitsToInt64 decodes little-endian bits as 2's complement.
func BitsToInt64(bits []bool) int64 {
	v := BitsToUint64(bits)
	if len(bits) < 64 && len(bits) > 0 && bits[len(bits)-1] {
		v |= ^uint64(0) << uint(len(bits))
	}
	return int64(v)
}
