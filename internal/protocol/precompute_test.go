package protocol

// Integration tests for the offline/online split: pool hits must serve
// correct results on the pure online path, pool misses must fall back
// to inline garbling with bit-identical wire output, and the background
// worker must turn an admitted shape's misses into hits.

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

func precomputeTestServer(t *testing.T, cfg maxsim.Config, o *obs.Obs, pool int) (*Server, *precompute.Engine, precompute.Shape) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.WithObs(o)
	eng, err := precompute.New(precompute.Config{Sim: cfg, Metrics: o.Metrics(), PoolSize: pool})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	srv.WithPrecompute(eng)
	shape := precompute.Shape{Rows: 2, Cols: 3, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"}
	return srv, eng, shape
}

// serveOnce runs one request (serveOne) over a fresh pipe and returns
// the client's outputs.
func serveOnce(t *testing.T, srv *Server, cfg SessionConfig, req Request, y []int64) []int64 {
	t.Helper()
	ca, cb := wire.Pipe()
	defer ca.Close()
	defer cb.Close()
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = serveOne(srv, ca, cfg, req)
	}()
	cli, err := NewClient(label.MustSystemDRBG())
	if err != nil {
		t.Fatal(err)
	}
	out, err := clientRun(cli, cb, y)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return out
}

func TestPrecomputeHitServesOnlinePath(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	A := [][]int64{{1, -2, 3}, {4, 5, -6}}
	y := []int64{7, -8, 9}
	want := []int64{1*7 + -2*-8 + 3*9, 4*7 + 5*-8 + -6*9}

	for _, mode := range []OTMode{OTPerRound, OTBatched} {
		t.Run(mode.String(), func(t *testing.T) {
			o := obs.New(4)
			srv, eng, shape := precomputeTestServer(t, cfg, o, 2)
			shape.OT = mode.String()
			if err := eng.Prefill(shape, 1); err != nil {
				t.Fatal(err)
			}
			out := serveOnce(t, srv, SessionConfig{}, Request{Matrix: A, OT: mode}, y)
			if out[0] != want[0] || out[1] != want[1] {
				t.Fatalf("pool-served result %v, want %v", out, want)
			}
			lbl := obs.L("shape", shape.String())
			if v := o.Metrics().Counter("precompute_hits_total", "", lbl).Value(); v != 1 {
				t.Fatalf("hits = %d, want 1", v)
			}
			if v := o.Metrics().Counter("precompute_misses_total", "", lbl).Value(); v != 0 {
				t.Fatalf("misses = %d, want 0", v)
			}
			if d := eng.Depth(shape); d != 0 {
				t.Fatalf("entry not consumed: depth %d", d)
			}
			snap := o.Traces().Recent(1)[0]
			if snap.Attrs["precompute"] != "hit" {
				t.Fatalf("trace precompute attr %q, want \"hit\"", snap.Attrs["precompute"])
			}
		})
	}
}

// TestPrecomputeMissFallsBackBitIdentical is the wire-compatibility
// guarantee: with identical randomness on both endpoints, a server with
// an admitted but empty precompute pool (miss → inline fallback) emits
// exactly the same bytes as a server with no engine at all.
func TestPrecomputeMissFallsBackBitIdentical(t *testing.T) {
	A := [][]int64{{1, -2, 3}, {4, 5, -6}}
	y := []int64{7, -8, 9}

	shape := precompute.Shape{Rows: 2, Cols: 3, Width: 8, Signed: true, Mode: "matvec", OT: "per-round"}
	run := func(withEngine bool) ([][]byte, []int64, *obs.Obs) {
		cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
		drbg, err := label.NewDRBG([16]byte{11})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Rand = drbg
		o := obs.New(4)
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.WithObs(o)
		if withEngine {
			eng, err := precompute.New(precompute.Config{Sim: maxsim.Config{Width: 8, AccWidth: 24, Signed: true}, Metrics: o.Metrics()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(eng.Stop)
			if !eng.Admit(shape) {
				t.Fatalf("shape %s refused", shape)
			}
			srv.WithPrecompute(eng) // admitted, never filled, never started: every Take misses
		}
		ca, cb := wire.Pipe()
		defer ca.Close()
		defer cb.Close()
		rec := &recordingConn{Conn: ca}
		var wg sync.WaitGroup
		var srvErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, srvErr = serveOne(srv, rec, SessionConfig{}, Request{Matrix: A})
		}()
		cdrbg, err := label.NewDRBG([16]byte{22})
		if err != nil {
			t.Fatal(err)
		}
		cli, err := NewClient(cdrbg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := clientRun(cli, cb, y)
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if srvErr != nil {
			t.Fatal(srvErr)
		}
		return rec.frames(), out, o
	}

	plain, outPlain, _ := run(false)
	missed, outMissed, o := run(true)
	if len(plain) != len(missed) {
		t.Fatalf("frame counts differ: plain %d, cold-pool %d", len(plain), len(missed))
	}
	for i := range plain {
		if !bytes.Equal(plain[i], missed[i]) {
			t.Fatalf("frame %d differs between plain and cold-pool serving", i)
		}
	}
	if outPlain[0] != outMissed[0] || outPlain[1] != outMissed[1] {
		t.Fatalf("results differ: %v vs %v", outPlain, outMissed)
	}
	if v := o.Metrics().Counter("precompute_misses_total", "", obs.L("shape", shape.String())).Value(); v != 1 {
		t.Fatalf("misses = %d, want 1", v)
	}
	if snap := o.Traces().Recent(1)[0]; snap.Attrs["precompute"] != "miss" {
		t.Fatalf("trace precompute attr %q, want \"miss\"", snap.Attrs["precompute"])
	}
}

// TestPrecomputeBackgroundFillTurnsMissIntoHit: a request that arrives
// before the admitted shape's first entry is built misses; the
// background worker fills the pool, and a later identical request hits.
func TestPrecomputeBackgroundFillTurnsMissIntoHit(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	o := obs.New(4)
	srv, eng, shape := precomputeTestServer(t, cfg, o, 1)
	if !eng.Admit(shape) {
		t.Fatalf("shape %s refused", shape)
	}
	A := [][]int64{{1, -2, 3}, {4, 5, -6}}
	y := []int64{7, -8, 9}

	serveOnce(t, srv, SessionConfig{}, Request{Matrix: A}, y) // worker not started: miss
	lbl := obs.L("shape", shape.String())
	if v := o.Metrics().Counter("precompute_misses_total", "", lbl).Value(); v != 1 {
		t.Fatalf("misses = %d, want 1", v)
	}
	eng.Start()
	waitForDepth(t, eng, shape, 1)
	serveOnce(t, srv, SessionConfig{}, Request{Matrix: A}, y) // warm now: hit
	if v := o.Metrics().Counter("precompute_hits_total", "", lbl).Value(); v != 1 {
		t.Fatalf("hits = %d, want 1", v)
	}
}

// waitForDepth polls the engine until the shape's pool holds at least n
// entries.
func waitForDepth(t *testing.T, eng *precompute.Engine, s precompute.Shape, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Depth(s) < n {
		if time.Now().After(deadline) {
			t.Fatalf("pool for %s never reached depth %d", s, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPrecomputeMultiplexedSession: pool hits across a multiplexed
// session — every request consumes its own entry (fresh labels per
// request), and a drained pool degrades to inline misses mid-session.
func TestPrecomputeMultiplexedSession(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	o := obs.New(4)
	srv, eng, shape := precomputeTestServer(t, cfg, o, 2)
	if err := eng.Prefill(shape, 2); err != nil {
		t.Fatal(err)
	}
	A := [][]int64{{1, -2, 3}, {4, 5, -6}}
	y := []int64{7, -8, 9}
	want := []int64{1*7 + -2*-8 + 3*9, 4*7 + 5*-8 + -6*9}

	ca, cb := wire.Pipe()
	defer ca.Close()
	defer cb.Close()
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, err := srv.NewSession(ca, SessionConfig{})
		if err != nil {
			srvErr = err
			return
		}
		defer sess.Close()
		for {
			if _, err := sess.Serve(Request{Matrix: A}); err != nil {
				if !errors.Is(err, ErrSessionEnded) {
					srvErr = err
				}
				return
			}
		}
	}()
	cli, err := NewClient(label.MustSystemDRBG())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cli.Dial(cb)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 3 // 2 hits drain the pool, then 1 inline miss
	for r := 0; r < requests; r++ {
		out, err := cs.Do(y)
		if err != nil {
			t.Fatalf("request %d: %v", r, err)
		}
		if out[0] != want[0] || out[1] != want[1] {
			t.Fatalf("request %d: got %v, want %v", r, out, want)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	lbl := obs.L("shape", shape.String())
	if v := o.Metrics().Counter("precompute_hits_total", "", lbl).Value(); v != 2 {
		t.Fatalf("hits = %d, want 2", v)
	}
	if v := o.Metrics().Counter("precompute_misses_total", "", lbl).Value(); v != 1 {
		t.Fatalf("misses = %d, want 1", v)
	}
}

// TestHardwareCountersCountRoundsGarbled pins what macs_total counts:
// MAC rounds garbled — a pool entry's when it is built, an inline row's
// when it is garbled. Three prefilled 2×3 entries read 18, a hit that
// serves one of them adds nothing, and a miss garbles its 6 rounds
// inline.
func TestHardwareCountersCountRoundsGarbled(t *testing.T) {
	o := obs.New(4)
	srv, eng, shape := precomputeTestServer(t, maxsim.Config{Width: 8, AccWidth: 24, Signed: true}, o, 4)
	macs := o.Metrics().Counter("macs_total", "")
	if err := eng.Prefill(shape, 3); err != nil {
		t.Fatal(err)
	}
	if got := macs.Value(); got != 18 {
		t.Fatalf("macs_total = %d after prefilling three 2×3 entries, want 18", got)
	}
	req := Request{Matrix: [][]int64{{1, 2, 3}, {4, 5, 6}}}
	serveOnce(t, srv, SessionConfig{}, req, []int64{1, 1, 1})
	if got := macs.Value(); got != 18 {
		t.Fatalf("macs_total = %d after a pool hit, want 18", got)
	}
	for eng.Take(shape) != nil { // drain the pool: the next request misses
	}
	serveOnce(t, srv, SessionConfig{}, req, []int64{1, 1, 1})
	if got := macs.Value(); got != 24 {
		t.Fatalf("macs_total = %d after a miss, want 24", got)
	}
}

// TestResponseStatsMatchServedFrames: a response's accounting is rows ×
// Account(cols) on every path, and its table count and bytes are what
// the material frames it sent carry. Under batched OT those are the
// server's last rows·cols frames (a raw OT frame may begin with any
// byte, the material tag included).
func TestResponseStatsMatchServedFrames(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	A := [][]int64{{1, -2, 3}, {4, 5, -6}, {-7, 8, 9}}
	for _, path := range []struct {
		name    string
		workers int
		pooled  bool
	}{{"inline", 1, false}, {"lanes", 2, false}, {"hit", 2, true}} {
		t.Run(path.name, func(t *testing.T) {
			srv, eng, shape := precomputeTestServer(t, cfg, obs.New(4), 1)
			if path.pooled {
				shape.Rows, shape.OT = len(A), OTBatched.String()
				if err := eng.Prefill(shape, 1); err != nil {
					t.Fatal(err)
				}
			}
			ca, cb := wire.Pipe()
			defer ca.Close()
			defer cb.Close()
			rec := &recordingConn{Conn: ca}
			var wg sync.WaitGroup
			var resp *Response
			var srvErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, srvErr = serveOne(srv, rec, SessionConfig{GarbleWorkers: path.workers}, Request{Matrix: A, OT: OTBatched})
			}()
			cli, err := NewClient(label.MustSystemDRBG())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := clientRun(cli, cb, []int64{1, 2, 3}); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
			if srvErr != nil {
				t.Fatal(srvErr)
			}
			if hits, _ := eng.PoolStats(); (hits == 1) != path.pooled {
				t.Fatalf("%d pool hits on the %s path", hits, path.name)
			}

			var want Stats
			for range A {
				want.Add(srv.sim.Account(len(A[0])))
			}
			if resp.Stats != want {
				t.Fatalf("Response.Stats = %+v, want rows × Account(cols) = %+v", resp.Stats, want)
			}
			var tables, tableBytes uint64
			frames := rec.frames()
			for _, f := range frames[len(frames)-len(A)*len(A[0]):] {
				if tagOf(f) != tagMaterial {
					t.Fatalf("frame tag %#02x among the material frames", tagOf(f))
				}
				m, err := gc.UnmarshalMaterial(f[1:])
				if err != nil {
					t.Fatal(err)
				}
				tables += uint64(m.NumTables)
				tableBytes += uint64(m.CiphertextBytes())
			}
			if resp.Stats.TablesGarbled != tables || resp.Stats.TableBytes != tableBytes {
				t.Fatalf("Response.Stats counts %d tables / %d bytes, the frames %d / %d",
					resp.Stats.TablesGarbled, resp.Stats.TableBytes, tables, tableBytes)
			}
		})
	}
}
