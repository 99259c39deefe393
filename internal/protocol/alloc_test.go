package protocol

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"

	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

// raceDetector reports a -race build (set in race_test.go).
var raceDetector bool

// TestWarmRequestAllocationBudget bounds the heap objects and bytes of
// one warm request, both endpoints together, over loopback TCP. The
// walkers allocate per round, not per gate (the 16×16 b=16 request —
// 256 MAC rounds, 182 272 AND gates garbled and evaluated — took ≈ 2.59
// million objects with per-gate label and table slices), and the OT
// extension per batch, not per label (17 853 before its kernel),
// so the count is a function of the shape and the cadence and repeats
// to within a few objects. Each cell's budgets are 1.10 × the objects
// and KiB this test measured when the cell was written (2 vCPU,
// go1.24.0), rounded up: a change that adds a per-gate, per-label or
// per-round allocation, or stops recycling a round or a frame, fails
// here, and one that removes objects lowers the measured values. Under
// -race the budgets are 1.20 ×: the detector makes every sync.Pool (fmt
// keeps its printers in one) drop a quarter of its Puts on purpose.
//
// Rounds and received frames are recycled: the server garbles into the
// rounds of its gc.RoundPool, reserved before the request for as many
// as it can hold at once, and both endpoints read each frame into a
// body from wire's size-classed lists, handed back once used. Each cell
// reports the fewest objects and KiB of four requests after the
// warm-up, whose pools are then full; over wire.Pipe, whose sender
// copies into a body for every frame it queues, the frames in flight
// follow the goroutines' timing, so a request that queued more than
// any before allocated the difference, and this test moved to TCP.
// Against the fresh-allocating path, measured over wire.Pipe, the
// objects fell 320–324 → 119–126, 183–185 → 95–97, 288 → 101–104,
// 119–121 → 77–80, 3 390–3 402 → 870–873 and 1 230–1 238 → 826–828;
// the 16×16 cells allocated ≈ 8 870 KiB before (bench warm_inline).
//
// The client's evaluation is allocation-free per round: each row
// goroutine holds a gc.Evaluator, reused across requests, where every
// round used to allocate six objects (slot array, hash scratch, result
// and its three slices) — 1 536 of the 16×16 cell's 5 036, 96 of a 4×4
// cell's. What the row goroutines cost instead is per request and per
// helper: a goroutine, a one-row queue and the runtime objects their
// hand-off uses (≈ 10 objects at 4×4, ≈ 130 at 16×16). The helper count
// is min(GOMAXPROCS, Rows) − 1, so the test pins GOMAXPROCS to 2, the
// value the counts were measured at.
//
// A per-round request also starts the OT request writer (otRequests):
// its goroutine, closure and struct and its window channel with the
// channel's buffer, ≈ 6 objects per request whatever the shape. The
// two per-round cells were re-measured with it: 316–317 → 320–324 and
// 178–179 → 183–185 against the lockstep client.
//
// The 16×16 workers=2 cell was re-measured when striped garble lanes
// replaced the server's row pool: 3 390–3 402 objects, as the pool
// measured (3 396–3 399). Its old 3 627 predated the garble loop's one
// input-bit buffer per call in place of one per round, which took this
// cell from ≈ 3 640 to ≈ 3 405 objects.
//
// The pooled cells were re-measured when an entry's rows became one
// request and binding stopped allocating a bit slice per round
// (circuit.Int64ToBits): 185 → 167–168 and 138 → 119–121. The 16×16
// pooled cell, the warm_pool request, was added then at 1 230–1 238
// (1 485–1 495 before the change).
//
// Every cell was re-measured (over TCP, objects then KiB, each the
// range of two to four runs) when the rows of a request began sharing
// the evaluator's input labels, so that a request transfers Cols·Width
// labels, not Rows·Cols·Width. Per-round 4×4: 121 → 109–110 and 13 →
// 12; pooled 95 → 83–85 and 10 → 8, with three of its four OT
// exchanges gone. Batched 4×4: 101–103 → 102–103 and 12 → 11; pooled
// 78–79 → 79 and 9 → 7. Batched 16×16: 870–873 → 873–874 and 201 →
// 140, the client's OT pads and both ends' OT scratch shrinking from
// 4 096 labels to 256; pooled 828 → 826–828 and 191 → 128–129. The
// one-row per-round 1×64 cell was added then at 360–362 objects and
// 33–34 KiB, the same before and after: one row shares nothing.
//
// Every cell was re-measured (four runs each, objects then KiB) when
// both ends began corking their writes: the client's u-writer sends
// otBatch u matrices from one session buffer, and the server frames
// rounds into a session cork whose arena buffers it reserves on each
// request's first frame, every buffer sized for a material frame and
// an OT answer, so that the cork's working set is allocated once a
// server and survives the collector's trims. Per-round 4×4: 107–109 →
// 106–109 and 12 → 11–12; pooled 82–85 → 84 and 8 → 8. Batched 4×4:
// 101–105 → 101–102 and 11 → 11; pooled 77 → 77–78 and 7 → 7. Batched
// 16×16: 872–874 → 871–875 and 139 → 139–140; pooled 826–828 → 825–827
// and 128–129 → 128–129. Per-round 1×64: 359–361 → 358–360 and 33–34 →
// 33. No cell moved past its runs' spread, and no budget was raised.
// Before the server sized every buffer alike, a row-0 round popped a
// buffer framed for a later row's material alone and grew it, and the
// per-round 4×4 cell read 17–31 KiB.
//
// Every cell was re-measured (four runs before, eight after, objects
// then KiB) when a batched request's OT pairs began coming from the
// request key, so the session goroutine no longer holds row 0's rounds
// until the last one exists. Batched 4×4: 100–102 → 96–101 and 10–11 →
// 10–11; pooled 76–78 → 75–77 and 7 → 7. Batched 16×16: 869–871 →
// 868–871 and 139 → 139; pooled 825–827 → 824–826 and 128–129 → 128.
// The per-round cells, whose path did not change, read as before:
// 4×4 106–108 → 103–108 and 11–12, pooled 82–84 and 8, 1×64 358–360 →
// 358–361 and 33–34. No measured value rose.
//
// Every cell was re-measured (eight alternating runs each side, objects
// then KiB) when every keyed stream became a gchash.CTR and the
// fixed-key hasher one per process. A request's Δ is one encrypted
// block where it was a read through an escaped stream (one object
// fewer), while the request and each lane now hold streams with a
// 64-byte lookahead (≈ 0.2–0.3 KiB more a request). Per-round 4×4:
// 107–108 → 102–108 and 12 → 12; pooled 81–85 → 82–84 and 8–9 → 8.
// Batched 4×4: 96–101 → 95–100 and 10–11 → 11; pooled 75–77 → 75–77
// and 7 → 7. Batched 16×16: 868–870 → 867–870 and 139 → 139–140;
// pooled 824–826 → 824–826 and 128 → 128. Per-round 1×64: 358–361 →
// 357–359 and 33 → 34, the lookahead bytes crossing a KiB. No object
// count rose; the 1×64 KiB constant stays at its old measurement.
//
// Every cell was re-measured (eight alternating runs each side, objects
// then KiB) when a request began keeping its key's expanded schedule,
// which its lanes' streams point at, in place of a stream over an
// aes.NewCipher block (512 B a request), and the OT columns moved in
// lockstep under a fixed-key row hash. Per-round 4×4: 105–109 →
// 104–107 and 12 → 11–12; pooled 82–85 → 82–84 and 8–9 → 8. Batched
// 4×4: 95–100 → 97–100 and 11 → 10; pooled 75–77 → 75–77 and 7 → 7.
// Batched 16×16: 867–871 → 867–870 and 139–140 → 139; pooled 824–826
// → 824–826 and 128 → 128. Per-round 1×64: 357–359 → 353–358 and 34 →
// 33. No cell rose; the per-round 4×4, batched 4×4 KiB and 1×64
// constants are lowered to the new maxima.
//
// Every cell was re-measured (sixteen runs, objects then KiB) when the
// client stopped allocating a gc.Material, its garbler labels and its
// permute bits per received frame (each slot parses into one reused
// view, in place in the frame's recycled body),
// a Dial stopped rebuilding the MAC of a shape the process had
// lowered, and the server began garbling into the buffer each frame
// goes out in, so its cork holds rounds instead of arena copies.
// Per-round 4×4: 104–107 → 51–57 and 11–12 → 5–6; pooled 82–84 →
// 27–32 and 8 → 2. Batched 4×4: 97–100 → 43–48 and 10 → 4, its
// constant 5, what -race runs read; pooled 75–77 → 23–25 and 7 → 1.
// Batched 16×16: 867–870 → 82–89 and 139 → 17–19; pooled 824–826 →
// 40–42 and 128 → 6. Per-round 1×64: 353–358 →
// 163–165 and 33 → 14. The other constants are lowered to the new
// maxima.
func TestWarmRequestAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	slack := uint64(10) // budget = ⌈measured × (1 + 1/slack)⌉
	if raceDetector {
		slack = 5
	}
	budget := func(measured uint64) uint64 { return measured + (measured+slack-1)/slack }
	cells := []struct {
		rows, n, width, workers int
		ot                      OTMode
		pooled                  bool
		objects, kib            uint64 // measured
	}{
		{n: 4, width: 8, ot: OTPerRound, objects: 57, kib: 6},
		{n: 4, width: 8, ot: OTPerRound, pooled: true, objects: 32, kib: 2},
		{n: 4, width: 8, ot: OTBatched, objects: 48, kib: 5},
		{n: 4, width: 8, ot: OTBatched, pooled: true, objects: 25, kib: 1},
		{n: 16, width: 16, ot: OTBatched, workers: 2, objects: 89, kib: 19},
		{n: 16, width: 16, ot: OTBatched, workers: 2, pooled: true, objects: 42, kib: 6},
		{rows: 1, n: 64, width: 8, ot: OTPerRound, objects: 165, kib: 14},
	}
	for _, c := range cells {
		rows := c.n
		if c.rows > 0 {
			rows = c.rows
		}
		name := fmt.Sprintf("%dx%d/b=%d/%s/workers=%d/pooled=%t", rows, c.n, c.width, c.ot, c.workers, c.pooled)
		t.Run(name, func(t *testing.T) {
			allocs, kib := warmRequestAllocs(t, rows, c.n, c.width, c.ot, c.workers, c.pooled)
			t.Logf("%d objects, %d KiB (budgets %d and %d for %d and %d measured)",
				allocs, kib, budget(c.objects), budget(c.kib), c.objects, c.kib)
			if allocs > budget(c.objects) {
				t.Fatalf("warm request allocated %d objects, budget %d for %d measured", allocs, budget(c.objects), c.objects)
			}
			if kib > budget(c.kib) {
				t.Fatalf("warm request allocated %d KiB, budget %d for %d measured", kib, budget(c.kib), c.kib)
			}
		})
	}
}

// allocFixture is the rows×n matrix and n-vector of the allocation
// cells at the given width, and A·y.
func allocFixture(rows, n, width int) (A [][]int64, y, want []int64) {
	lim := int64(1) << (width - 2)
	A = make([][]int64, rows)
	y = make([]int64, n)
	want = make([]int64, rows)
	for j := range y {
		y[j] = int64(j*1000-7000) % lim
	}
	for i := range A {
		A[i] = make([]int64, n)
		for j := range A[i] {
			A[i][j] = int64((i+1)*(j-n/2)*37) % lim
			want[i] += A[i][j] * y[j]
		}
	}
	return A, y, want
}

// warmRequestAllocs serves five rows×n requests on one session over
// loopback TCP — the first pays the lazy set-up of both endpoints and
// fills their pools, the other four are counted — checks each against
// plaintext and returns the fewest heap objects and KiB a counted one
// took. A pooled cell takes every request from entries built
// beforehand; no refill worker runs, so nothing else allocates during
// the count.
func warmRequestAllocs(t *testing.T, rows, n, width int, ot OTMode, workers int, pooled bool) (objects, kib uint64) {
	t.Helper()
	A, y, want := allocFixture(rows, n, width)
	cfg := maxsim.Config{Width: width, AccWidth: 2*width + 8, Signed: true}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var eng *precompute.Engine
	if pooled {
		if eng, err = precompute.New(precompute.Config{Sim: cfg, PoolSize: 5}); err != nil {
			t.Fatal(err)
		}
		defer eng.Stop()
		srv.WithPrecompute(eng)
		shape := precompute.Shape{Rows: rows, Cols: n, Width: width, Signed: true, Mode: "matvec", OT: ot.String()}
		if err := eng.Prefill(shape, 5); err != nil {
			t.Fatal(err)
		}
	}
	cli, err := NewClient(label.MustSystemDRBG())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	bc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.NewStreamConn(ac), wire.NewStreamConn(bc)
	defer a.Close()
	defer b.Close()

	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := srv.NewSession(a, SessionConfig{GarbleWorkers: workers})
		if err != nil {
			srvErr = err
			return
		}
		defer sess.Close()
		for {
			_, err := sess.Serve(Request{Matrix: A, OT: ot})
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
	objects, kib = math.MaxUint64, math.MaxUint64
	for range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		do()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		kib = min(kib, (after.TotalAlloc-before.TotalAlloc)/1024)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	if hits, misses := eng.PoolStats(); pooled && (hits != 5 || misses != 0) {
		t.Fatalf("pooled cell hit the pool %d times and missed %d, want 5 and 0", hits, misses)
	}
	return objects, kib
}

// TestFreshSessionAllocationBudget bounds the heap objects and bytes of
// one whole session on a fresh loopback TCP connection — connect,
// handshake, OT set-up, one per-round 4×16 b=8 request, close — both
// endpoints together, against one long-lived server: the cold_session
// shape, where whatever a session keeps for its requests is paid once an
// op. It reports the fewest of four sessions after a warm-up one, with
// the budgets of TestWarmRequestAllocationBudget.
//
// Measured (four runs each) at 6 868–6 950 objects and 1 091–1 099 KiB
// before either end corked its writes, when the session's OT column
// PRGs each held a cipher.NewCTR, whose copy of the AES key schedule
// cost 384 objects and ≈ 190 KiB a session; at 6 124–6 172 and 903–910
// with the corks and without that copy. The corks cost a fresh
// connection ≈ 9 KiB and ≈ 12 objects: the poller's iovec cache and
// the stream conn's header scratch grow to a batch of frames, and the
// cork's and the u-writer's slices are the session's. Re-measured (eight
// alternating runs each side) when the column PRGs became gchash.CTRs
// and the fixed-key hasher one per process: 6 072–6 253 objects and
// 895–909 KiB before, 6 135–6 232 and 901–908 after, the same spread.
// Re-measured (sixteen alternating runs each side) when the 384 column
// streams of a session became two gchash.Columns, κ or 2κ expanded
// schedules each, in place of 384 aes.NewCipher objects of 512 B:
// 6 105–6 251 objects and 898–910 KiB before, 5 720–5 803 and 769–787
// after. Re-measured (sixteen runs) when the client began parsing each
// round into a reused view in place and sharing one lowered MAC across
// Dials, and the server garbling into its frames: 5 528–5 657 objects
// and 732–759 KiB.
func TestFreshSessionAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	slack := uint64(10)
	if raceDetector {
		slack = 5
	}
	budget := func(measured uint64) uint64 { return measured + (measured+slack-1)/slack }
	const objectsMeasured, kibMeasured = 5657, 759
	A, y, want := allocFixture(4, 16, 8)
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	session := func() {
		t.Helper()
		srvDone := make(chan error, 1)
		go func() {
			nc, err := ln.Accept()
			if err != nil {
				srvDone <- err
				return
			}
			conn := wire.NewStreamConn(nc)
			defer conn.Close()
			_, err = serveOne(srv, conn, SessionConfig{GarbleWorkers: 1}, Request{Matrix: A, OT: OTPerRound})
			srvDone <- err
		}()
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		cli, err := NewClient(label.MustSystemDRBG())
		if err != nil {
			t.Fatal(err)
		}
		out, err := clientRun(cli, wire.NewStreamConn(nc), y)
		nc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-srvDone; err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("row %d = %d, want %d", i, out[i], want[i])
			}
		}
	}
	session()
	objects, kib := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		session()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		kib = min(kib, (after.TotalAlloc-before.TotalAlloc)/1024)
	}
	t.Logf("%d objects, %d KiB (budgets %d and %d for %d and %d measured)",
		objects, kib, budget(objectsMeasured), budget(kibMeasured), objectsMeasured, kibMeasured)
	if objects > budget(objectsMeasured) {
		t.Fatalf("fresh session allocated %d objects, budget %d for %d measured", objects, budget(objectsMeasured), objectsMeasured)
	}
	if kib > budget(kibMeasured) {
		t.Fatalf("fresh session allocated %d KiB, budget %d for %d measured", kib, budget(kibMeasured), kibMeasured)
	}
}
