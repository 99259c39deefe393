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
// (def35ba) and re-pinned three times since. First when the garbler took
// ownership of the tweak sequence: both rows are garbled on one
// simulator, so under one Δ, and row 1 now continues row 0's tweak range
// instead of restarting at 0. Then when the builder began folding
// XOR(w, w) and AND(w, w) and Add stopped forming its top carry: this
// b=8 signed MAC went from 204 to 178 ANDs, so every material frame is
// shorter and every tweak after the first dropped gate moves (protocol
// v5). Then when the MAC's multiplier became radix-4 Booth rows selected
// by x's digits: the MAC went from 178 to 120 ANDs (protocol v6). The
// label draw order is unchanged.
const goldenTranscriptDigest = "37e0d405f91084a251c00cd439f38f5f93c3a84714870874a596c88ddaf2c22a"

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

func TestGoldenTranscriptDigest(t *testing.T) {
	A := [][]int64{{1, -2, 3}, {-128, 127, -1}}
	sim := goldenSim(t)
	runs := make([]*DotProductRun, len(A))
	for i, row := range A {
		run, err := sim.GarbleDotProduct(row)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = run
	}
	if got := transcriptDigest(t, runs); got != goldenTranscriptDigest {
		t.Fatalf("transcript digest %s, want the parent commit's %s", got, goldenTranscriptDigest)
	}

	// The offline path draws the same stream: pre-garble, bind, same bytes.
	pre := goldenSim(t)
	for i, row := range A {
		pr, err := pre.PreGarbleDotProduct(len(row))
		if err != nil {
			t.Fatal(err)
		}
		if runs[i], err = pr.Bind(row); err != nil {
			t.Fatal(err)
		}
	}
	if got := transcriptDigest(t, runs); got != goldenTranscriptDigest {
		t.Fatalf("pre-garbled transcript digest %s, want %s", got, goldenTranscriptDigest)
	}
}
