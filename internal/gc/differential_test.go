package gc

// Differential oracle for the garbling kernel. Garble and Evaluate
// specialise the AND step for the paper's configuration (half gates over
// fixed-key AES); the Scheme interface stays as the reference. This test
// pins the two together byte for byte: any divergence in table bytes,
// label pairs, state labels or tweak accounting between the kernel and
// HalfGates.GarbleAND/EvalAND driven through the interface fails here,
// under a seeded label stream, before it can reach a wire transcript.

import (
	"bytes"
	"fmt"
	mrand "math/rand"
	"slices"
	"testing"

	"maxelerator/internal/circuit"
	"maxelerator/internal/label"
)

// referenceHalfGates is HalfGates behind a distinct dynamic type: the
// kernel's type switch does not recognise it, so every AND goes through
// the Scheme interface.
type referenceHalfGates struct{ HalfGates }

// macChain is three chained MAC rounds: garbler operands xs against
// evaluator operands as, the accumulator carried through the state.
type macChain struct{ xs, as []int64 }

// macChains returns the operand chains one configuration is driven
// through: an edge chain — min-int squared twice over (which wraps the
// 2b-bit signed accumulator) then −1, or all-ones operands on the
// unsigned datapath (wrapping from the second round) — and a random one.
func macChains(rng *mrand.Rand, width int, signed bool) []macChain {
	lo, hi := int64(0), int64(1)<<width-1
	edge := macChain{xs: []int64{hi, hi, hi}, as: []int64{hi, hi, hi}}
	if signed {
		lo, hi = -(int64(1) << (width - 1)), int64(1)<<(width-1)-1
		edge = macChain{xs: []int64{lo, lo, -1}, as: []int64{lo, lo, hi}}
	}
	random := macChain{}
	for i := 0; i < 3; i++ {
		random.xs = append(random.xs, lo+rng.Int63n(hi-lo+1))
		random.as = append(random.as, lo+rng.Int63n(hi-lo+1))
	}
	return []macChain{edge, random}
}

func seededGarbler(t *testing.T, p Params, seed byte) *Garbler {
	t.Helper()
	drbg, err := label.NewDRBG([16]byte{seed, 0x16})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGarbler(p, drbg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pickActive(pairs []label.Pair, bits []bool) []label.Label {
	active := make([]label.Label, len(bits))
	for i, v := range bits {
		active[i] = pairs[i].Get(v)
	}
	return active
}

func TestKernelMatchesSchemeInterface(t *testing.T) {
	rng := mrand.New(mrand.NewSource(16))
	kernelP := DefaultParams()
	refP := Params{Hash: kernelP.Hash, Scheme: referenceHalfGates{}}
	for _, width := range []int{4, 8, 16, 32} {
		for _, signed := range []bool{false, true} {
			// A narrow accumulator (2b) so the edge chain wraps it.
			c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: signed})
			for ci, chain := range macChains(rng, width, signed) {
				t.Run(fmt.Sprintf("b%d/signed=%v/chain%d", width, signed, ci), func(t *testing.T) {
					kernel := seededGarbler(t, kernelP, byte(width))
					ref := seededGarbler(t, refP, byte(width))
					var kState0, rState0, kAct, rAct []label.Label
					var kTweak, rTweak uint64
					var plainState []bool
					for round := range chain.xs {
						xBits := circuit.Int64ToBits(chain.xs[round], width)
						aBits := circuit.Int64ToBits(chain.as[round], width)
						kg, err := kernel.Garble(c, GarbleOptions{GarblerInputs: xBits, State0: kState0, TweakBase: kTweak})
						if err != nil {
							t.Fatal(err)
						}
						rg, err := ref.Garble(c, GarbleOptions{GarblerInputs: xBits, State0: rState0, TweakBase: rTweak})
						if err != nil {
							t.Fatal(err)
						}
						kEnc, err := MarshalMaterial(&kg.Material)
						if err != nil {
							t.Fatal(err)
						}
						rEnc, err := MarshalMaterial(&rg.Material)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(kEnc, rEnc) {
							t.Fatalf("round %d: kernel material differs from the Scheme-interface reference", round)
						}
						if !slices.Equal(kg.EvalPairs, rg.EvalPairs) || !slices.Equal(kg.OutputPairs, rg.OutputPairs) ||
							!slices.Equal(kg.GarblerPairs, rg.GarblerPairs) {
							t.Fatalf("round %d: label pairs differ", round)
						}
						if !slices.Equal(kg.StateOut0, rg.StateOut0) || kg.NextTweak != rg.NextTweak {
							t.Fatalf("round %d: state labels or next tweak differ (%d vs %d)", round, kg.NextTweak, rg.NextTweak)
						}
						if kg.NextTweak <= kTweak {
							t.Fatalf("round %d: tweak did not advance (%d → %d)", round, kTweak, kg.NextTweak)
						}

						// Evaluate both from their own wire encodings, as
						// the client does.
						km, err := UnmarshalMaterial(kEnc)
						if err != nil {
							t.Fatal(err)
						}
						rm, err := UnmarshalMaterial(rEnc)
						if err != nil {
							t.Fatal(err)
						}
						kr, err := Evaluate(kernelP, c, km, pickActive(kg.EvalPairs, aBits), kAct)
						if err != nil {
							t.Fatal(err)
						}
						rr, err := Evaluate(refP, c, rm, pickActive(rg.EvalPairs, aBits), rAct)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(kr.OutputLabels, rr.OutputLabels) || !slices.Equal(kr.StateActive, rr.StateActive) {
							t.Fatalf("round %d: evaluated labels differ", round)
						}
						wantOut, nextState, err := c.EvalRound(xBits, aBits, plainState)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(kr.Outputs, wantOut) || !slices.Equal(rr.Outputs, wantOut) {
							t.Fatalf("round %d: x=%d a=%d decoded %v / %v, plaintext %v",
								round, chain.xs[round], chain.as[round], kr.Outputs, rr.Outputs, wantOut)
						}
						kState0, rState0 = kg.StateOut0, rg.StateOut0
						kAct, rAct = kr.StateActive, rr.StateActive
						kTweak, rTweak = kg.NextTweak, rg.NextTweak
						plainState = nextState
					}
				})
			}
		}
	}
}

// TestEvaluatorReuseMatchesFreshEvaluate pins the reusable Evaluator to
// a fresh Evaluate call, bit for bit: one Evaluator per circuit, two
// circuits interleaved round by round for three chained rounds, the
// reused result's state labels fed straight back in. Stale slots,
// scratch or result buffers from an earlier round — or from the other
// circuit's walk — would show here, on the kernel and on both table
// schemes' interface path.
func TestEvaluatorReuseMatchesFreshEvaluate(t *testing.T) {
	rng := mrand.New(mrand.NewSource(26))
	ckts := []*circuit.Circuit{
		circuit.MustMAC(circuit.MACConfig{Width: 8, AccWidth: 16, Signed: true}),
		circuit.MustMAC(circuit.MACConfig{Width: 16, AccWidth: 32}),
	}
	for _, s := range allSchemes() {
		p := params(s)
		type chain struct {
			g             *Garbler
			e             *Evaluator
			state0        []label.Label
			reused, fresh []label.Label // state labels carried on each side
			tweak         uint64
		}
		chains := make([]*chain, len(ckts))
		for i, c := range ckts {
			e, err := NewEvaluator(p, c)
			if err != nil {
				t.Fatal(err)
			}
			chains[i] = &chain{g: seededGarbler(t, p, byte(i)), e: e}
		}
		for round := 0; round < 3; round++ {
			for i, c := range ckts {
				ch := chains[i]
				gb, err := ch.g.Garble(c, GarbleOptions{GarblerInputs: randomBits(rng, c.NGarbler), State0: ch.state0, TweakBase: ch.tweak})
				if err != nil {
					t.Fatal(err)
				}
				active := pickActive(gb.EvalPairs, randomBits(rng, c.NEvaluator))
				want, err := Evaluate(p, c, &gb.Material, active, ch.fresh)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ch.e.Eval(&gb.Material, active, ch.reused)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Outputs, want.Outputs) || !slices.Equal(got.OutputLabels, want.OutputLabels) ||
					!slices.Equal(got.StateActive, want.StateActive) {
					t.Fatalf("%s circuit %d round %d: reused Evaluator differs from a fresh Evaluate", s.Name(), i, round)
				}
				ch.state0, ch.tweak = gb.StateOut0, gb.NextTweak
				ch.reused, ch.fresh = got.StateActive, want.StateActive
			}
		}
	}
}

// TestTableSchemesMatchPlaintextOnChainedMAC drives the two ablation
// schemes through the same chains: they share the gate walker with the
// kernel and must still compute the MAC.
func TestTableSchemesMatchPlaintextOnChainedMAC(t *testing.T) {
	rng := mrand.New(mrand.NewSource(17))
	for _, s := range []Scheme{GRR3{}, FourRow{}} {
		p := params(s)
		for _, width := range []int{4, 8, 16, 32} {
			for _, signed := range []bool{false, true} {
				c := circuit.MustMAC(circuit.MACConfig{Width: width, AccWidth: 2 * width, Signed: signed})
				for ci, chain := range macChains(rng, width, signed) {
					g := seededGarbler(t, p, byte(width))
					var state0, act []label.Label
					var tweak uint64
					var plainState []bool
					for round := range chain.xs {
						xBits := circuit.Int64ToBits(chain.xs[round], width)
						aBits := circuit.Int64ToBits(chain.as[round], width)
						gb, err := g.Garble(c, GarbleOptions{GarblerInputs: xBits, State0: state0, TweakBase: tweak})
						if err != nil {
							t.Fatal(err)
						}
						res, err := Evaluate(p, c, &gb.Material, pickActive(gb.EvalPairs, aBits), act)
						if err != nil {
							t.Fatal(err)
						}
						wantOut, nextState, err := c.EvalRound(xBits, aBits, plainState)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(res.Outputs, wantOut) {
							t.Fatalf("%s b=%d signed=%v chain %d round %d: decoded %v, plaintext %v",
								s.Name(), width, signed, ci, round, res.Outputs, wantOut)
						}
						state0, act, tweak, plainState = gb.StateOut0, res.StateActive, gb.NextTweak, nextState
					}
				}
			}
		}
	}
}
