package protocol

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/wire"
)

// TestWarmRequestAllocationBudget bounds the heap objects of one warm
// 16×16 b=16 batched request, both endpoints together, over wire.Pipe:
// 256 MAC rounds, 182 272 AND gates garbled and evaluated. The walkers
// allocate per round, not per gate, so the request stays under 60 000
// objects; with per-gate label and table slices it took ≈ 2.59 million.
func TestWarmRequestAllocationBudget(t *testing.T) {
	const n = 16
	A := make([][]int64, n)
	y := make([]int64, n)
	want := make([]int64, n)
	for i := range A {
		A[i] = make([]int64, n)
		y[i] = int64(i*1000 - 7000)
	}
	for i := range A {
		for j := range A[i] {
			A[i][j] = int64((i+1)*(j-8)*37) % 30000
			want[i] += A[i][j] * y[j]
		}
	}
	srv, err := NewServer(maxsim.Config{Width: 16, AccWidth: 40, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(label.MustSystemDRBG())
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()

	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := srv.NewSession(a, SessionConfig{})
		if err != nil {
			srvErr = err
			return
		}
		defer sess.Close()
		for {
			_, err := sess.Serve(Request{Matrix: A, OT: OTBatched, GarbleWorkers: 2})
			if errors.Is(err, ErrSessionEnded) {
				return
			}
			if err != nil {
				srvErr = err
				return
			}
		}
	}()
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	do := func() {
		t.Helper()
		out, err := cs.Do(y)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("row %d = %d, want %d", i, out[i], want[i])
			}
		}
	}
	do() // warm: lazy set-up on both endpoints is not the request's cost
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	do()
	runtime.ReadMemStats(&after)
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > 60000 {
		t.Fatalf("warm 16x16 b=16 batched request allocated %d objects, budget 60000", allocs)
	} else {
		t.Logf("warm 16x16 b=16 batched request: %d objects, %d KiB", allocs, (after.TotalAlloc-before.TotalAlloc)/1024)
	}
}
