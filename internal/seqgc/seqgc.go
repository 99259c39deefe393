// Package seqgc orchestrates sequential garbled circuits in the
// TinyGarble style the paper builds on (§2.2 reference [16], §3): the
// same compact netlist is garbled round after round with fresh labels,
// with D-flip-flop state carried forward as label material on both
// sides — the garbler keeps the FALSE labels of the state-out wires,
// the evaluator keeps its active labels, and neither retransmits
// state.
//
// The sessions enforce the bookkeeping that makes multi-round garbling
// safe: strictly increasing non-overlapping tweak ranges, matching
// round counters, and state continuity.
package seqgc

import (
	"fmt"
	"io"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
)

// GarblerSession drives the garbler side across rounds.
type GarblerSession struct {
	params  gc.Params
	ckt     *circuit.Circuit
	garbler *gc.Garbler
	state0  []label.Label
	tweak   uint64
	round   int
}

// NewGarblerSession creates a session for the circuit with a fresh
// free-XOR offset drawn from rnd.
func NewGarblerSession(params gc.Params, rnd io.Reader, ckt *circuit.Circuit) (*GarblerSession, error) {
	if ckt == nil {
		return nil, fmt.Errorf("seqgc: nil circuit")
	}
	g, err := gc.NewGarbler(params, rnd)
	if err != nil {
		return nil, err
	}
	return &GarblerSession{params: params, ckt: ckt, garbler: g}, nil
}

// Circuit returns the netlist garbled each round.
func (s *GarblerSession) Circuit() *circuit.Circuit { return s.ckt }

// Round returns the number of completed rounds.
func (s *GarblerSession) Round() int { return s.round }

// NextRound garbles one round with the given garbler inputs and
// advances the state and tweak bookkeeping.
func (s *GarblerSession) NextRound(garblerInputs []bool) (*gc.Garbled, error) {
	gb, err := s.garbler.Garble(s.ckt, gc.GarbleOptions{
		GarblerInputs: garblerInputs,
		State0:        s.state0,
		TweakBase:     s.tweak,
	})
	if err != nil {
		return nil, fmt.Errorf("seqgc: round %d: %w", s.round, err)
	}
	s.state0 = gb.StateOut0
	s.tweak = gb.NextTweak
	s.round++
	return gb, nil
}

// Reset clears the accumulated state so the next round starts a new
// sequential computation (e.g. the next output element of a matrix
// product). Tweaks keep increasing — they must never repeat under one
// free-XOR offset.
func (s *GarblerSession) Reset() { s.state0 = nil }

// EvaluatorSession drives the evaluator side across rounds, on one
// reusable gc.Evaluator.
type EvaluatorSession struct {
	ev       *gc.Evaluator
	stateAct []label.Label
	round    int
}

// NewEvaluatorSession creates the evaluator-side session.
func NewEvaluatorSession(params gc.Params, ckt *circuit.Circuit) (*EvaluatorSession, error) {
	if ckt == nil {
		return nil, fmt.Errorf("seqgc: nil circuit")
	}
	ev, err := gc.NewEvaluator(params, ckt)
	if err != nil {
		return nil, err
	}
	return &EvaluatorSession{ev: ev}, nil
}

// Round returns the number of completed rounds.
func (s *EvaluatorSession) Round() int { return s.round }

// NextRound evaluates one round with the received material and the
// evaluator's active input labels (from OT). The result is valid until
// the next NextRound.
func (s *EvaluatorSession) NextRound(m *gc.Material, evalActive []label.Label) (*gc.EvalResult, error) {
	res, err := s.ev.Eval(m, evalActive, s.stateAct)
	if err != nil {
		return nil, fmt.Errorf("seqgc: round %d: %w", s.round, err)
	}
	s.stateAct = res.StateActive
	s.round++
	return res, nil
}

// Reset clears carried state for a new sequential computation.
func (s *EvaluatorSession) Reset() { s.stateAct = nil }
