package protocol

import (
	"flag"
	"fmt"
	mrand "math/rand"
	"runtime"
	"testing"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/precompute"
)

var propertySeed = flag.Int64("property.seed", 0, "seed of TestServeMatchesPlaintextProperty (0 draws one from the clock)")

// TestServeMatchesPlaintextProperty is the end-to-end property of the
// serve path: whatever the shape, operand width, sign, OT mode, pool
// outcome, lane count (1 to 4) and client GOMAXPROCS (which sets how many
// row evaluators the client runs: none besides the reader at 1 or at
// one row), the client decodes exactly A·y. Every row count of 1, 2, 3,
// 4 and 17 runs in both OT modes, inline and from the pool, so rows ≥ 1
// reuse row 0's OT labels on every path; the rest of each case is drawn
// from one seed, printed on failure; replay with -property.seed.
func TestServeMatchesPlaintextProperty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	seed := *propertySeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	rng := mrand.New(mrand.NewSource(seed))
	var i int
	for _, rows := range []int{1, 2, 3, 4, 17} {
		for _, mode := range []OTMode{OTPerRound, OTBatched} {
			for _, hit := range []bool{false, true} {
				checkServeCase(t, rng, seed, i, rows, mode, hit)
				i++
			}
		}
	}
}

// checkServeCase serves one case of TestServeMatchesPlaintextProperty.
func checkServeCase(t *testing.T, rng *mrand.Rand, seed int64, i, rows int, mode OTMode, hit bool) {
	t.Helper()
	width := []int{8, 16}[rng.Intn(2)]
	signed := rng.Intn(2) == 0
	workers := 1 + rng.Intn(4) // lanes 1 to 4, as many as the rows allow
	cols := 1 + rng.Intn(5)
	procs := []int{1, 2, 4}[rng.Intn(3)]
	runtime.GOMAXPROCS(procs)
	name := fmt.Sprintf("seed=%d case=%d %dx%d b=%d signed=%v %s hit=%v workers=%d procs=%d",
		seed, i, rows, cols, width, signed, mode, hit, workers, procs)

	lo, span := int64(0), int64(1)<<width
	if signed {
		lo = -(span / 2)
	}
	y := make([]int64, cols)
	for j := range y {
		y[j] = lo + rng.Int63n(span)
	}
	A := make([][]int64, rows)
	want := make([]int64, rows)
	for r := range A {
		A[r] = make([]int64, cols)
		for j := range A[r] {
			A[r][j] = lo + rng.Int63n(span)
			want[r] += A[r][j] * y[j]
		}
	}

	// 2b product bits plus 3 for up to five addends: no wrap.
	cfg := maxsim.Config{Width: width, AccWidth: 2*width + 3, Signed: signed}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	eng, err := precompute.New(precompute.Config{Sim: cfg, PoolSize: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	srv.WithPrecompute(eng) // never started: a hit only when prefilled below
	req := Request{Matrix: A, OT: mode}
	if hit {
		if err := eng.Prefill(srv.shapeOf(req), 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	got := serveOnce(t, srv, SessionConfig{GarbleWorkers: workers}, req, y)
	hits, _ := eng.PoolStats()
	eng.Stop()
	if (hits == 1) != hit {
		t.Fatalf("%s: pool hits = %d", name, hits)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("%s: row %d = %d, want %d (A=%v y=%v)", name, r, got[r], want[r], A, y)
		}
	}
}
