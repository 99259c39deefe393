package maxsim

// Deferred garbling: the offline half of the GC offline/online split.
// Garbling a MAC chain is input-independent — label generation and the
// fixed-key AES half-gate tables depend only on the circuit shape and
// the randomness stream, never on the garbler's operands (the operands
// only select which of each input wire's two labels is the active
// one). PreGarbleDotProduct therefore garbles a whole dot product
// before the inputs exist, and Bind later patches the garbler-active
// labels for the real vector. The label draw order is identical to
// GarbleDotProduct's, so under the same randomness source a pre-garbled
// run is byte-identical to an inline one — the determinism invariant
// internal/precompute's property tests pin down.

import (
	"fmt"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
)

// PreRun is one pre-garbled dot product awaiting its garbler inputs.
// It retains the garbler-input label pairs of every round; Bind
// consumes them exactly once. A PreRun is not safe for concurrent use —
// single-use admission is the pool layer's job (see
// internal/precompute.Entry).
type PreRun struct {
	run    *DotProductRun
	pairs  [][]label.Pair // per-round garbler-input pairs
	width  int
	signed bool
	bound  bool
}

// Cols returns the vector length the run was garbled for.
func (p *PreRun) Cols() int { return len(p.run.Rounds) }

// PreGarbleDotProduct garbles the m-round sequential MAC with the
// garbler inputs deferred: tables, evaluator pairs and timing are final,
// only the garbler-active label selection waits for Bind. It draws
// labels in exactly the order GarbleDotProduct does, so a simulator
// seeded from the same randomness produces bit-identical material
// either way.
func (s *Simulator) PreGarbleDotProduct(m int) (*PreRun, error) {
	if m <= 0 {
		return nil, fmt.Errorf("maxsim: pre-garble of %d rounds", m)
	}
	run := &DotProductRun{Rounds: make([]*gc.Garbled, 0, m)}
	pairs := make([][]label.Pair, 0, m)
	var state0 []label.Label
	var tweak uint64
	zeros := make([]bool, s.macCkt.NGarbler)
	for round := 0; round < m; round++ {
		gb, err := s.garbler.Garble(s.macCkt, gc.GarbleOptions{
			GarblerInputs: zeros,
			State0:        state0,
			TweakBase:     tweak,
		})
		if err != nil {
			return nil, fmt.Errorf("maxsim: pre-garbling round %d: %w", round, err)
		}
		run.Rounds = append(run.Rounds, gb)
		pairs = append(pairs, gb.GarblerPairs)
		state0 = gb.StateOut0
		tweak = gb.NextTweak
		run.Stats.TablesGarbled += uint64(gb.Material.NumTables)
		run.Stats.TableBytes += uint64(gb.Material.CiphertextBytes())
	}
	run.OutputPairs = run.Rounds[m-1].OutputPairs
	s.fillStats(&run.Stats, uint64(m))
	return &PreRun{run: run, pairs: pairs, width: s.cfg.Width, signed: s.cfg.Signed}, nil
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
	if len(x) != len(p.run.Rounds) {
		return nil, fmt.Errorf("maxsim: binding %d values to a %d-round pre-garbling", len(x), len(p.run.Rounds))
	}
	for round, xi := range x {
		if err := checkRange(xi, p.width, p.signed); err != nil {
			return nil, fmt.Errorf("maxsim: round %d: %w", round, err)
		}
	}
	for round, xi := range x {
		bits := circuit.Int64ToBits(xi, p.width)
		active := p.run.Rounds[round].Material.GarblerActive
		for i, v := range bits {
			active[i] = p.pairs[round][i].Get(v)
		}
	}
	p.bound = true
	return p.run, nil
}
