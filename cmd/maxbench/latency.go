// Latency mode (-latency): measures what a client actually waits for
// per request — the online path of the Fig. 1 protocol — over a
// multiplexed in-memory session, and reports p50/p95/p99/mean. With
// -precompute the same workload runs twice, inline and against a warm
// precompute pool (refills happen off the clock, as the offline
// phase), so the offline/online split's win is visible in one
// invocation:
//
//	maxbench -latency -rows 16 -cols 16 -b 16 -requests 30 -precompute
//	maxbench -latency -precompute -json   # machine-readable
//
// measurePass is also the engine under -grid (grid.go): every grid
// cell is one pass at a fixed OT mode × shape × serving mode.
package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/precompute"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// latencyConfig gathers the -latency mode knobs.
type latencyConfig struct {
	rows, cols int
	width      int
	requests   int
	precompute bool
	pool       int
	// addr switches the pass to a live server (maxd, or maxgw in front
	// of a fleet) instead of the in-memory session; client side only.
	addr string
}

// latencyResult is one measured pass; all times in milliseconds so the
// JSON needs no unit parsing.
type latencyResult struct {
	Mode     string  `json:"mode"` // "inline" or "precomputed"
	Requests int     `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MeanMs   float64 `json:"mean_ms"`
}

// latencyReport is the full -latency artefact.
type latencyReport struct {
	Rows       int             `json:"rows"`
	Cols       int             `json:"cols"`
	Width      int             `json:"width"`
	Results    []latencyResult `json:"results"`
	SpeedupP50 float64         `json:"speedup_p50,omitempty"`
}

func runLatency(lc latencyConfig, out *output) error {
	if lc.rows <= 0 || lc.cols <= 0 {
		return fmt.Errorf("latency: rows and cols must be positive (got %dx%d)", lc.rows, lc.cols)
	}
	if lc.requests <= 0 {
		return fmt.Errorf("latency: requests must be positive (got %d)", lc.requests)
	}
	if lc.addr != "" {
		return runRemoteLatency(lc, out)
	}

	rep := latencyReport{Rows: lc.rows, Cols: lc.cols, Width: lc.width}
	out.progressf("latency: inline pass (%d requests, %dx%d b=%d)...",
		lc.requests, lc.rows, lc.cols, lc.width)
	inline, err := measureLatency(lc, false)
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, inline)
	if lc.precompute {
		out.progressf("latency: precomputed pass (%d requests, warm pool)...", lc.requests)
		pre, err := measureLatency(lc, true)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, pre)
		if pre.P50Ms > 0 {
			rep.SpeedupP50 = inline.P50Ms / pre.P50Ms
		}
	}

	if out.json {
		return out.emitJSON(rep)
	}
	w := out.data
	fmt.Fprintf(w, "Online request latency, %d×%d matvec at b=%d (%d requests per pass)\n\n",
		lc.rows, lc.cols, lc.width, lc.requests)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s\n", "mode", "p50", "p95", "p99", "mean")
	for _, r := range rep.Results {
		fmt.Fprintf(w, "%-12s %9.1fms %9.1fms %9.1fms %9.1fms\n",
			r.Mode, r.P50Ms, r.P95Ms, r.P99Ms, r.MeanMs)
	}
	if rep.SpeedupP50 > 0 {
		fmt.Fprintf(w, "\nwarm-pool speedup (p50): %.2f×\n", rep.SpeedupP50)
	}
	return nil
}

// runRemoteLatency is -latency -addr: the same clocked request loop,
// but against a live TCP endpoint — a single maxd, or a maxgw fleet
// front door. The session opens with a shape-hint preface so a
// gateway pins it to the backend whose pool is warm for the shape,
// which makes this the fleet's end-to-end latency probe. The server
// owns the matrix, so -rows and -cols must describe the model it
// serves (maxd -rows/-cols); a mismatched -cols fails the request.
// -precompute is meaningless here — a remote server manages its own
// pools — and is rejected.
func runRemoteLatency(lc latencyConfig, out *output) error {
	if lc.precompute {
		return fmt.Errorf("latency: -precompute measures the in-process engine; a server at -addr manages its own pools")
	}
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		return err
	}
	cli.WithShapeHint(protocol.ShapeHint{
		Rows: lc.rows, Cols: lc.cols, Width: lc.width, Signed: true,
		Mode: "matvec", OT: protocol.OTPerRound.String(),
	})
	nc, err := net.Dial("tcp", lc.addr)
	if err != nil {
		return err
	}
	conn := wire.NewStreamConn(nc)
	defer conn.Close()
	out.progressf("latency: remote pass against %s (%d requests, %dx%d b=%d)...",
		lc.addr, lc.requests, lc.rows, lc.cols, lc.width)
	cs, err := cli.Dial(conn)
	if err != nil {
		return err
	}
	y := make([]int64, lc.cols)
	for j := range y {
		y[j] = int64(j%16 - 8)
	}
	samples := make([]time.Duration, 0, lc.requests)
	for i := 0; i < lc.requests; i++ {
		start := time.Now()
		if _, err := cs.Do(y); err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		samples = append(samples, time.Since(start))
	}
	if err := cs.Close(); err != nil {
		return err
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })

	rep := latencyReport{Rows: lc.rows, Cols: lc.cols, Width: lc.width}
	res := latencyResult{Mode: "remote", Requests: lc.requests}
	ps := passStats{samples: samples}
	res.P50Ms, res.P95Ms, res.P99Ms = ps.percentilesMs()
	res.MeanMs = ms(ps.mean())
	rep.Results = append(rep.Results, res)
	if out.json {
		return out.emitJSON(rep)
	}
	w := out.data
	fmt.Fprintf(w, "Online request latency against %s, %d×%d matvec at b=%d (%d requests)\n\n",
		lc.addr, lc.rows, lc.cols, lc.width, lc.requests)
	fmt.Fprintf(w, "%-12s %10s %10s %10s %10s\n", "mode", "p50", "p95", "p99", "mean")
	fmt.Fprintf(w, "%-12s %9.1fms %9.1fms %9.1fms %9.1fms\n",
		res.Mode, res.P50Ms, res.P95Ms, res.P99Ms, res.MeanMs)
	return nil
}

// measureLatency is the -latency pass: batched OT, per-request
// unclocked prefill on the warm pass (the historical contract of the
// mode), no allocation accounting.
func measureLatency(lc latencyConfig, warm bool) (latencyResult, error) {
	res := latencyResult{Mode: "inline", Requests: lc.requests}
	if warm {
		res.Mode = "precomputed"
	}
	ps, err := measurePass(passConfig{
		rows: lc.rows, cols: lc.cols, width: lc.width, ot: protocol.OTBatched,
		requests: lc.requests, warm: warm, pool: lc.pool,
	})
	if err != nil {
		return res, err
	}
	res.P50Ms, res.P95Ms, res.P99Ms = ps.percentilesMs()
	res.MeanMs = ms(ps.mean())
	return res, nil
}

// passConfig fixes one measured pass: a workload shape, an OT mode and
// a serving mode.
type passConfig struct {
	rows, cols int
	width      int
	ot         protocol.OTMode
	requests   int
	// warm serves from a precompute pool. With prefillAll the whole
	// pool is built before the clocked loop (grid cells: a fully warm
	// steady state); without it one entry is prefilled, unclocked,
	// before each request (the -latency contract).
	warm       bool
	prefillAll bool
	// pool sizes the engine's per-shape refill target when warm;
	// prefillAll passes ignore it and size the pool to requests.
	pool int
	// memstats collects runtime.MemStats deltas across the clocked
	// loop (bytes/op, allocs/op).
	memstats bool
}

// passStats is what one pass actually measured.
type passStats struct {
	// samples are the per-request round-trip times, sorted ascending.
	samples []time.Duration
	// tables is the garbled-table count the server reported across the
	// clocked requests.
	tables uint64
	// poolHits and poolMisses are the engine's Take outcomes across the
	// clocked loop only (snapshotted per pass, so one cell's fallback
	// can't leak into another). Zero on inline passes.
	poolHits, poolMisses uint64
	// bytesPerOp and allocsPerOp are MemStats deltas over the clocked
	// loop divided by requests (zero unless memstats was set).
	bytesPerOp  uint64
	allocsPerOp uint64
}

// mean returns the average sample.
func (ps passStats) mean() time.Duration {
	if len(ps.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ps.samples {
		sum += d
	}
	return sum / time.Duration(len(ps.samples))
}

// onlineSeconds is the total clocked time of the pass.
func (ps passStats) onlineSeconds() float64 {
	var sum time.Duration
	for _, d := range ps.samples {
		sum += d
	}
	return sum.Seconds()
}

// measurePass runs pc.requests matvec requests over one multiplexed
// in-memory session and clocks each request round trip. The connection
// handshake and OT setup are paid once, outside the clocked region;
// warm passes prefill the precompute pool off the clock — that
// garbling is exactly the work the offline phase moves off the request
// path.
func measurePass(pc passConfig) (passStats, error) {
	var ps passStats
	cfg := maxsim.Config{Width: pc.width, AccWidth: 2 * pc.width, Signed: true}
	A := make([][]int64, pc.rows)
	y := make([]int64, pc.cols)
	for i := range A {
		A[i] = make([]int64, pc.cols)
		for j := range A[i] {
			A[i][j] = int64((i*31+j*17)%200 - 100)
		}
	}
	for j := range y {
		y[j] = int64(j%16 - 8)
	}
	req := protocol.Request{Matrix: A, OT: pc.ot}
	shape := precompute.Shape{Rows: pc.rows, Cols: pc.cols, Width: pc.width,
		Signed: true, Mode: "matvec", OT: pc.ot.String()}

	srv, err := protocol.NewServer(cfg)
	if err != nil {
		return ps, err
	}
	var eng *precompute.Engine
	if pc.warm {
		pool := pc.pool
		if pc.prefillAll {
			pool = pc.requests
		}
		eng, err = precompute.New(precompute.Config{Sim: cfg, PoolSize: pool})
		if err != nil {
			return ps, err
		}
		defer eng.Stop()
		srv.WithPrecompute(eng)
		if pc.prefillAll {
			if err := eng.Prefill(shape, pc.requests); err != nil {
				return ps, err
			}
		}
	}
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		return ps, err
	}

	ca, cb := wire.Pipe()
	defer ca.Close()
	defer cb.Close()
	var tables atomic.Uint64
	srvDone := make(chan error, 1)
	go func() {
		sess, err := srv.NewSession(ca, protocol.SessionConfig{})
		if err != nil {
			srvDone <- err
			return
		}
		defer sess.Close()
		for {
			resp, err := sess.Serve(req)
			if err != nil {
				if errors.Is(err, protocol.ErrSessionEnded) {
					err = nil
				}
				srvDone <- err
				return
			}
			tables.Add(resp.Stats.TablesGarbled)
		}
	}()
	cs, err := cli.Dial(cb)
	if err != nil {
		return ps, err
	}

	var m0 runtime.MemStats
	if pc.memstats {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	// Snapshot the pool counters at the clocked loop's boundaries: the
	// delta is this cell's own hit/miss record, so a warm cell that ran
	// dry mid-loop is detectable (and flagged degraded) instead of its
	// inline fallbacks silently polluting the throughput number.
	hits0, misses0 := eng.PoolStats()
	samples := make([]time.Duration, 0, pc.requests)
	for i := 0; i < pc.requests; i++ {
		if eng != nil && !pc.prefillAll {
			if err := eng.Prefill(shape, 1); err != nil {
				return ps, err
			}
		}
		start := time.Now()
		if _, err := cs.Do(y); err != nil {
			return ps, err
		}
		samples = append(samples, time.Since(start))
	}
	if pc.memstats {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		n := uint64(pc.requests)
		ps.bytesPerOp = (m1.TotalAlloc - m0.TotalAlloc) / n
		ps.allocsPerOp = (m1.Mallocs - m0.Mallocs) / n
	}
	if err := cs.Close(); err != nil {
		return ps, err
	}
	if err := <-srvDone; err != nil {
		return ps, err
	}

	hits1, misses1 := eng.PoolStats()
	ps.poolHits, ps.poolMisses = hits1-hits0, misses1-misses0

	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	ps.samples = samples
	ps.tables = tables.Load()
	return ps, nil
}

// percentilesMs cuts the nearest-rank p50/p95/p99, in milliseconds, from
// the pass's sorted samples.
func (ps passStats) percentilesMs() (p50, p95, p99 float64) {
	v := make([]float64, len(ps.samples))
	for i, d := range ps.samples {
		v[i] = ms(d)
	}
	return obs.NearestRank(v, 50), obs.NearestRank(v, 95), obs.NearestRank(v, 99)
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
