package main

// The harness: workloads, seeded inputs, set-up, the clocked loop and
// the metrics computed from it. It reaches the system only through the
// backend, client and replay of layers.go.

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// workload is one row of the benchmark: a request shape and the way a
// client uses the system with it. BENCHMARK.json carries the reason
// each was chosen; bench/README.md the long form.
type workload struct {
	name string
	shape
	// cold workloads open a fresh connection and session for every op;
	// warm ones clock requests on one long-lived session.
	cold bool
	// pooled workloads serve every clocked request from a precompute
	// entry built off the clock, batch entries at a time.
	pooled bool
	batch  int
	// minOps is the fewest clocked ops a time-boxed run accepts.
	minOps int
}

// warmups is how many requests a warm session serves before the clock
// starts: the first request of a session is several times slower than
// the rest.
const warmups = 3

var workloads = []workload{
	{name: "cold_session", shape: shape{rows: 4, cols: 16, width: 8, workers: 1}, cold: true, minOps: 4},
	{name: "warm_inline", shape: shape{rows: 16, cols: 16, width: 16, batched: true, workers: 2}, minOps: 16},
	{name: "warm_pool", shape: shape{rows: 16, cols: 16, width: 16, batched: true, workers: 1}, pooled: true, batch: 8, minOps: 16},
	{name: "chain_perround", shape: shape{rows: 1, cols: 512, width: 8, workers: 1}, minOps: 16},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are everything the program receives: the garbler's matrix, a
// few client vectors to cycle through, and the plaintext products the
// results are held against.
type inputs struct {
	A    [][]int64
	ys   [][]int64
	want [][]int64
}

// generate derives the inputs from the seed. Magnitudes are sized so
// that no dot product can leave the 2b-bit signed accumulator; the
// exact check below rejects a seed that would anyway.
func generate(sh shape, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	accMax := int64(1)<<(2*sh.width-1) - 1
	mag := int64(math.Sqrt(float64(accMax / int64(sh.cols))))
	if opMax := int64(1)<<(sh.width-1) - 1; mag > opMax {
		mag = opMax
	}
	draw := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = rng.Int63n(2*mag+1) - mag
		}
		return v
	}
	in := &inputs{A: make([][]int64, sh.rows)}
	for i := range in.A {
		in.A[i] = draw(sh.cols)
	}
	for k := 0; k < 8; k++ {
		y := draw(sh.cols)
		want := make([]int64, sh.rows)
		for i, row := range in.A {
			for j, a := range row {
				want[i] += a * y[j]
			}
			if want[i] > accMax || want[i] < -accMax-1 {
				return nil, fmt.Errorf("seed %d overflows the %d-bit accumulator at row %d", seed, 2*sh.width, i)
			}
		}
		in.ys = append(in.ys, y)
		in.want = append(in.want, want)
	}
	return in, nil
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// rig is one set-up system: backend, client, and for warm workloads an
// open, warmed session.
type rig struct {
	w   workload
	in  *inputs
	be  *backend
	cl  *client
	tr  *tracer
	ops int // ops issued so far, warm-ups included; picks the vector
	dos int64
}

// setUp brings the system to the point where the next op can be
// clocked: backend listening, and for warm workloads the session dialed
// and warmed (pooled: against entries built here). A cold rig runs one
// unclocked op so the process's first-use costs stay out of the clock.
func setUp(w workload, in *inputs, tr *tracer) (*rig, error) {
	be, err := startBackend(w.shape, in.A, backendOptions{obs: true, pooled: w.pooled, tr: tr})
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, in: in, be: be, tr: tr, cl: &client{addr: be.addr(), sh: w.shape, tr: tr}}
	if err := r.warm(); err != nil {
		r.tearDown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return r, nil
}

func (r *rig) warm() error {
	if r.w.cold {
		_, err := r.op()
		return err
	}
	if r.w.pooled {
		if err := r.be.prefill(r.w.shape, warmups); err != nil {
			return err
		}
	}
	if err := r.cl.connect(0); err != nil {
		return err
	}
	if err := r.cl.dial(0); err != nil {
		return err
	}
	for i := 0; i < warmups; i++ {
		if _, err := r.op(); err != nil {
			return err
		}
	}
	return nil
}

// errWrong marks an op that completed with a result other than A·y.
var errWrong = fmt.Errorf("result differs from plaintext A·y")

// op runs one operation of the workload and returns its wall time. Cold:
// connect, dial, one request, close. Warm: one request.
func (r *rig) op() (time.Duration, error) {
	k := r.ops % len(r.in.ys)
	r.ops++
	start := time.Now()
	var got []int64
	var err error
	if r.w.cold {
		// The op's connection is the client's next one: this client is
		// the only one that counts on the rig's tracer.
		id := r.tr.start(0, "op", "client", r.cl.conn+1, -1)
		if err = r.cl.connect(id); err == nil {
			if err = r.cl.dial(id); err == nil {
				got, err = r.cl.do(id, r.in.ys[k])
			}
		}
		if cerr := r.cl.close(id); err == nil {
			err = cerr
		}
		r.tr.finish(id)
	} else {
		got, err = r.cl.do(0, r.in.ys[k])
	}
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	r.dos++
	if !equal(got, r.in.want[k]) {
		return d, errWrong
	}
	if r.w.cold {
		// Let the server finish with the connection before the next op
		// opens one: never more than one client connection.
		return d, r.settle()
	}
	return d, nil
}

// settle waits until the backend has finished everything the client has
// completed, so that counters read next include the server's share and
// a tracer toggle cannot split a request.
func (r *rig) settle() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		served := r.be.served.Load() >= r.dos
		if r.w.cold {
			served = served && r.be.sessions.Load() >= r.dos
		}
		if served {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("backend did not finish %d requests in 10s", r.dos)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

func (r *rig) tearDown() error {
	cerr := r.cl.close(0)
	if err := r.be.stop(); err != nil {
		return err
	}
	return cerr
}

// phase is what one clocked loop measured.
type phase struct {
	// samples are per-op wall times in ms; with a tracer, traced and
	// plain hold the two halves.
	samples, traced, plain []float64

	attempted, wrong, refused, errored, missed int

	clocked    time.Duration // wall time of the clocked batches
	offline    time.Duration // wall time of off-clock prefill
	cpu        time.Duration // process CPU of the whole phase
	offlineCPU time.Duration // of which during prefill
	heap0      heapMark
	heap1      heapMark
	wire       int64
	steal      float64
	firstErr   error
}

func (p *phase) failed() int { return p.wrong + p.refused + p.errored + p.missed }
func (p *phase) ok() int     { return p.attempted - p.wrong - p.refused - p.errored }

// limits say when a clocked loop ends: after ops operations when ops is
// positive, else once seconds have passed and the workload's minimum is
// met. Pooled workloads end on a batch boundary, so every entry built
// is an entry used.
type limits struct {
	ops     int
	seconds float64
}

// measure runs the clocked loop. With a tracer it alternates traced and
// untraced blocks of ops, which gives the tracing overhead from one
// process and one session.
func (r *rig) measure(lim limits) *phase {
	p := &phase{}
	block := 1
	switch {
	case r.w.pooled:
		block = r.w.batch
	case !r.w.cold && r.tr != nil:
		block = 8
	}
	minOps := r.w.minOps
	if r.tr != nil && minOps < 4*block {
		minOps = 4 * block
	}
	if err := r.settle(); err != nil {
		p.firstErr = err
		return p
	}
	total0, steal0 := hostCPU()
	p.heap0 = markHeap(true)
	wire0 := r.cl.wireBytes()
	cpu0 := cpuTime()
	deadline := time.Now().Add(time.Duration(lim.seconds * float64(time.Second)))
	done := func() bool {
		if lim.ops > 0 {
			return p.attempted >= lim.ops
		}
		return p.attempted >= minOps && time.Now().After(deadline)
	}

	for blk := 0; !done() && p.firstErr == nil; blk++ {
		traced := blk%2 == 0
		if r.tr != nil {
			r.tr.on.Store(traced)
		}
		half := &p.plain
		if traced {
			half = &p.traced
		}
		var hits0, misses0 uint64
		if r.w.pooled {
			start, c0 := time.Now(), cpuTime()
			if err := r.be.prefill(r.w.shape, block); err != nil {
				p.firstErr = err
				break
			}
			p.offline += time.Since(start)
			p.offlineCPU += cpuTime() - c0
			hits0, misses0, _ = r.be.poolStats(r.w.shape)
		}
		start := time.Now()
	ops:
		for i := 0; i < block && (r.w.pooled || !done()); i++ {
			p.attempted++
			d, err := r.op()
			switch {
			case err == nil:
				p.samples = append(p.samples, ms(d))
				*half = append(*half, ms(d))
				continue
			case err == errWrong:
				p.wrong++
				continue
			case isBusy(err):
				p.refused++
			default:
				p.errored++
			}
			// After a transport or protocol error the session's stream
			// position is unknown; the run ends here and says why.
			p.firstErr = err
			break ops
		}
		if err := r.settle(); err != nil && p.firstErr == nil {
			p.firstErr = err
		}
		p.clocked += time.Since(start)
		if r.w.pooled {
			// A clocked request that was not a pool hit fell back to
			// inline garbling: a failed op, not a latency sample.
			hits1, misses1, depth := r.be.poolStats(r.w.shape)
			p.missed += int(misses1 - misses0)
			if served := int(hits1 - hits0 + misses1 - misses0); p.firstErr == nil && (served != block || depth != 0) {
				p.firstErr = fmt.Errorf("pool accounting: %d takes for %d requests, %d entries left", served, block, depth)
			}
		}
	}
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	p.cpu = cpuTime() - cpu0
	p.wire = r.cl.wireBytes() - wire0
	p.heap1 = markHeap(false)
	if total1, steal1 := hostCPU(); total1 > total0 {
		p.steal = (steal1 - steal0) / (total1 - total0)
	}
	return p
}

// endToEnd turns a phase into the metrics a user of the system sees.
// setup_s and peak_rss_mb are added by the caller, which owns them.
func (p *phase) endToEnd(sh shape) map[string]float64 {
	ops := float64(p.attempted)
	macs := float64(sh.macs())
	return map[string]float64{
		"req_p50_ms":         median(p.samples),
		"macs_per_s":         ratio(macs*float64(p.ok()-p.missed), p.clocked.Seconds()),
		"cpu_ms_per_req":     ms(p.cpu) / ops,
		"wire_bytes_per_mac": float64(p.wire) / (macs * ops),
		"allocs_per_req":     float64(p.heap1.mallocs-p.heap0.mallocs) / ops,
		"alloc_kb_per_req":   float64(p.heap1.bytes-p.heap0.bytes) / 1024 / ops,
	}
}

// live adds the per-layer metrics that come from the clocked loop
// itself and its spans rather than from the replay.
func (p *phase) live(w workload, tr *tracer, out map[string]float64) {
	ops := float64(p.attempted)
	out["fail_frac"] = float64(p.failed()) / ops
	out["trace.overhead_frac"] = ratio(median(p.traced), median(p.plain)) - 1
	out["protocol.cpu_per_wall"] = ratio((p.cpu - p.offlineCPU).Seconds(), p.clocked.Seconds())
	out["runtime.gc_cycles_per_req"] = float64(p.heap1.cycles-p.heap0.cycles) / ops
	out["runtime.gc_pause_ms_per_req"] = float64(p.heap1.pauseNs-p.heap0.pauseNs) / 1e6 / ops
	out["host.steal_frac"] = p.steal
	out["precompute.offline_s"] = p.offline.Seconds()
	if w.pooled {
		out["precompute.hit_frac"] = float64(p.attempted-p.missed) / ops
	}

	// Spans, by name. Connection-level ones exist once per cold op, or
	// once for the warm session (its close is recorded at tear-down, so
	// this runs after it). A session's first request is its own metric;
	// warm-up requests count for nothing else.
	dur := make(map[string][]float64)
	for _, s := range tr.closed() {
		name := s.Name
		switch {
		case name == "do" && s.Req == 0:
			name = "first_do"
		case s.Req >= 0 && s.Req < warmups && !w.cold:
			continue
		}
		dur[name] = append(dur[name], s.End-s.Start)
	}
	if w.cold {
		dur["do"] = dur["first_do"]
	}
	out["protocol.connect_us"] = median(dur["connect"])
	out["protocol.dial_ms"] = median(dur["dial"]) / 1000
	out["protocol.new_session_ms"] = median(dur["new_session"]) / 1000
	out["protocol.close_us"] = median(dur["close"])
	out["protocol.first_do_ms"] = median(dur["first_do"]) / 1000
	out["protocol.do_p50_ms"] = median(dur["do"]) / 1000
	out["protocol.do_p90_ms"] = quantile(dur["do"], 0.9) / 1000
	out["protocol.serve_p50_ms"] = median(dur["serve"]) / 1000
}

// unattributed is the part of a request the replayed layers do not
// explain: the request's median minus the busier endpoint's layers laid
// end to end. It is reported, not asserted; it can be negative where
// layers overlap (two garbling workers, garbler ahead of evaluator).
func unattributed(w workload, m map[string]float64) float64 {
	server := m["gc.marshal_ms_per_req"] + m["wire.send_ms_per_req"] + m["ot.labels_ms_per_req"]
	if w.pooled {
		server += m["precompute.take_us"]/1000 + m["precompute.bind_ms_per_req"]
	} else {
		server += m["maxsim.new_us"]/1000 + m["maxsim.garble_ms_per_req"]
	}
	client := m["ot.labels_ms_per_req"] + m["gc.unmarshal_ms_per_req"] + m["maxsim.eval_ms_per_req"]
	return m["protocol.do_p50_ms"] - math.Max(server, client)
}
