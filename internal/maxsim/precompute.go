package maxsim

// Deferred garbling: the offline half of the GC offline/online split.
// Garbling a MAC chain is input-independent — label generation and the
// fixed-key AES half-gate tables depend only on the circuit shape and
// the randomness stream, never on the garbler's operands (the operands
// only select which of each input wire's two labels is the active
// one). PreGarbleDotProduct therefore garbles a whole dot product
// before the inputs exist — as GarbleDotProduct of the zero vector —
// and Bind later re-selects the garbler-active labels for the real
// vector. It is the same garble loop, so under the same randomness
// source a pre-garbled run is byte-identical to an inline one — the
// determinism invariant internal/precompute's property tests pin down.

import (
	"fmt"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
)

// PreRun is one pre-garbled dot product awaiting its garbler inputs.
// Its rounds retain their garbler-input label pairs
// (gc.Garbled.GarblerPairs); Bind consumes them exactly once. A PreRun
// is not safe for concurrent use — single-use admission is the pool
// layer's job (see internal/precompute.Entry).
type PreRun struct {
	run    *DotProductRun
	width  int
	signed bool
	bound  bool
}

// Cols returns the vector length the run was garbled for.
func (p *PreRun) Cols() int { return len(p.run.Rounds) }

// PreGarbleDotProduct garbles the m-round sequential MAC with the
// garbler inputs deferred: tables, evaluator pairs and timing are final,
// only the garbler-active label selection waits for Bind. It is
// GarbleDotProduct on m zeros, so a simulator seeded from the same
// randomness produces bit-identical material either way.
func (s *Simulator) PreGarbleDotProduct(m int) (*PreRun, error) {
	if m <= 0 {
		return nil, fmt.Errorf("maxsim: pre-garble of %d rounds", m)
	}
	run, err := s.GarbleDotProduct(make([]int64, m))
	if err != nil {
		return nil, err
	}
	return &PreRun{run: run, width: s.cfg.Width, signed: s.cfg.Signed}, nil
}

// Bind selects the garbler-active labels for the real vector x and
// returns the now-complete run. A PreRun binds exactly once: the
// garbler-active labels are patched in place, so re-binding would serve
// labels from a garbling the evaluator may already have seen —
// precisely the fresh-labels violation the single-use rule exists to
// prevent.
func (p *PreRun) Bind(x []int64) (*DotProductRun, error) {
	if p.bound {
		return nil, fmt.Errorf("maxsim: pre-garbled run already bound")
	}
	if err := BindRounds(p.run.Rounds, x, p.width, p.signed); err != nil {
		return nil, err
	}
	p.bound = true
	return p.run, nil
}

// BindRounds selects each round's garbler-active labels for x[r] from
// its retained pairs (gc.Garbled.GarblerPairs), for PreRun.Bind and the
// precompute pool alike. A bad x leaves the rounds untouched.
func BindRounds(rounds []*gc.Garbled, x []int64, width int, signed bool) error {
	if len(x) != len(rounds) {
		return fmt.Errorf("maxsim: binding %d values to a %d-round pre-garbling", len(x), len(rounds))
	}
	for round, xi := range x {
		if err := circuit.CheckRange(xi, width, signed); err != nil {
			return fmt.Errorf("maxsim: round %d: %w", round, err)
		}
	}
	for round, xi := range x {
		gb := rounds[round]
		for i, p := range gb.GarblerPairs {
			gb.Material.GarblerActive[i] = p.Get(uint64(xi)>>i&1 == 1) // circuit.Int64ToBits, in place
		}
	}
	return nil
}
