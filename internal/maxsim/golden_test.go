package maxsim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"maxelerator/internal/gc"
	"maxelerator/internal/label"
)

// goldenTranscriptDigest is the SHA-256 of everything a fixed-seed 2×3
// b=8 signed run puts on the wire — each round's material frame followed
// by its OT sender pairs. "Bit-identical" is thereby pinned across
// rewrites of the garbling datapath, not only across pool sizes within
// one build: the label draw order, tweak sequence, table bytes and codec
// layout all feed it.
//
// It was first computed at the commit before the flat-program kernel
// (def35ba) and re-pinned four times since. First when the garbler took
// ownership of the tweak sequence: both rows are garbled on one
// simulator, so under one Δ, and row 1 now continues row 0's tweak range
// instead of restarting at 0. Then when the builder began folding
// XOR(w, w) and AND(w, w) and Add stopped forming its top carry: this
// b=8 signed MAC went from 204 to 178 ANDs, so every material frame is
// shorter and every tweak after the first dropped gate moves (protocol
// v5). Then when the MAC's multiplier became radix-4 Booth rows selected
// by x's digits: the MAC went from 178 to 120 ANDs (protocol v6). Then
// when the two rows became one gc.Request: the DRBG now supplies only
// the request's 16-byte seed, Δ and every label are AES under that seed
// (row i's n-th label is AES_k(i ‖ n)), and row 1 hashes from its
// row-indexed tweak base 1·3·120·2 = 720, which happens to be where
// row 0's range ends. Frame lengths and layout are unchanged. Then when
// the rows began sharing the evaluator's input labels (protocol v7):
// label n of round j's evaluator inputs is AES_k(2⁶⁴−2 ‖ j·8 + n) in
// both rows, so row 1's EvalPairs equal row 0's, and a row's own stream
// no longer draws those 8 labels a round, which moves every later label
// of the row. Frame lengths and layout are unchanged again.
const goldenTranscriptDigest = "af7876bff887b109a1fb41598b2aa945b0e13b941225630c6bc31340513effa9"

func transcriptDigest(t *testing.T, runs []*DotProductRun) string {
	t.Helper()
	h := sha256.New()
	for _, run := range runs {
		for _, gb := range run.Rounds {
			frame, err := gc.MarshalMaterial(&gb.Material)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(frame)
			for _, p := range gb.EvalPairs {
				h.Write(p.False[:])
				h.Write(p.True[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenSim(t *testing.T) *Simulator {
	t.Helper()
	drbg, err := label.NewDRBG([16]byte{'P', 'R', '1', '6'})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := New(Config{Width: 8, AccWidth: 24, Signed: true, Rand: drbg})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// TestGoldenTranscriptDigest pins the bytes of a two-row request as
// GarbleRows, and the serve path, garble it. TestPreGarbleMatchesInline
// holds the offline path to the same bytes.
func TestGoldenTranscriptDigest(t *testing.T) {
	A := [][]int64{{1, -2, 3}, {-128, 127, -1}}
	sim := goldenSim(t)
	req, err := sim.NewRequest(len(A[0]))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := sim.GarbleRows(req, A)
	if err != nil {
		t.Fatal(err)
	}
	if got := transcriptDigest(t, runs); got != goldenTranscriptDigest {
		t.Fatalf("transcript digest %s, want the parent commit's %s", got, goldenTranscriptDigest)
	}
}
