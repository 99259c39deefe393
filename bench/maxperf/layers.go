package main

// layers.go is the only file of the benchmark that imports the packages
// under test. It holds the backend (an accept loop wired the way
// cmd/maxd wires it), the client operations the workloads are made of,
// and the layer replay: each lower layer's public functions called
// standalone at a workload's shape, normalised to one request's worth
// of work. A refactor of the system should have to touch this file and
// no other.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gateway"
	"maxelerator/internal/gc"
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/ot"
	"maxelerator/internal/pipeline"
	"maxelerator/internal/precompute"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// shape is what a request looks like to every layer.
type shape struct {
	rows, cols, width int
	batched           bool // one OT batch per request instead of one per round
	workers           int  // row-garbling workers of the session
}

func (s shape) macs() int { return s.rows * s.cols }

func (s shape) sim() maxsim.Config {
	return maxsim.Config{Width: s.width, AccWidth: 2 * s.width, Signed: true}
}

func (s shape) otMode() protocol.OTMode {
	if s.batched {
		return protocol.OTBatched
	}
	return protocol.OTPerRound
}

func (s shape) pool() precompute.Shape {
	return precompute.Shape{Rows: s.rows, Cols: s.cols, Width: s.width,
		Signed: true, Mode: "matvec", OT: s.otMode().String()}
}

func (s shape) hint() protocol.ShapeHint {
	return protocol.ShapeHint{Rows: s.rows, Cols: s.cols, Width: s.width,
		Signed: true, Mode: "matvec", OT: s.otMode().String()}
}

// ---------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------

// backend is the garbler daemon reduced to what a request touches:
// listener, session, serve loop. It is wired exactly as cmd/maxd wires
// its server (obs hub, the daemon's default timeouts, one goroutine per
// connection).
type backend struct {
	srv     *protocol.Server
	eng     *precompute.Engine // nil unless pooled; never Started
	ln      net.Listener
	req     protocol.Request
	workers int
	tr      *tracer
	// lenient backends serve the replay's probe connections, which hang
	// up after the first frame; their session errors are expected.
	lenient bool

	wg       sync.WaitGroup
	served   atomic.Int64 // requests served to completion
	sessions atomic.Int64 // connections handled to completion
	mu       sync.Mutex
	errs     []error
}

type backendOptions struct {
	obs, pooled, lenient bool
	tr                   *tracer
}

func startBackend(sh shape, A [][]int64, o backendOptions) (*backend, error) {
	srv, err := protocol.NewServer(sh.sim())
	if err != nil {
		return nil, err
	}
	var hub *obs.Obs
	if o.obs {
		hub = obs.New(0)
		srv.WithObs(hub)
	}
	srv.WithTimeouts(protocol.Timeouts{Handshake: 30 * time.Second, IO: 2 * time.Minute})
	b := &backend{
		srv:     srv,
		req:     protocol.Request{Matrix: A, OT: sh.otMode()},
		workers: sh.workers,
		tr:      o.tr,
		lenient: o.lenient,
	}
	if o.pooled {
		b.eng, err = precompute.New(precompute.Config{Sim: sh.sim(), Metrics: hub.Metrics()})
		if err != nil {
			return nil, err
		}
		srv.WithPrecompute(b.eng)
	}
	b.ln, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		for {
			c, err := b.ln.Accept()
			if err != nil {
				return // listener closed by stop
			}
			b.wg.Add(1)
			go b.handle(c)
		}
	}()
	return b, nil
}

func (b *backend) addr() string { return b.ln.Addr().String() }

func (b *backend) fail(err error) {
	if b.lenient {
		return
	}
	b.mu.Lock()
	b.errs = append(b.errs, err)
	b.mu.Unlock()
}

func (b *backend) handle(c net.Conn) {
	defer b.wg.Done()
	defer b.sessions.Add(1)
	conn := wire.NewStreamConn(c)
	defer conn.Close()
	idx := b.tr.nextServerConn()
	id := b.tr.start(0, "new_session", "server", idx, -1)
	sess, err := b.srv.NewSession(conn, protocol.SessionConfig{GarbleWorkers: b.workers})
	b.tr.finish(id)
	if err != nil {
		b.fail(fmt.Errorf("backend: session setup: %w", err))
		return
	}
	defer sess.Close()
	for req := 0; ; req++ {
		// The span opens when the server starts waiting for the request,
		// so it includes the client's think time; the wait for the end
		// marker is never finished and so never written.
		id := b.tr.start(0, "serve", "server", idx, req)
		_, err := sess.Serve(b.req)
		if errors.Is(err, protocol.ErrSessionEnded) {
			return
		}
		b.tr.finish(id)
		if err != nil {
			b.fail(fmt.Errorf("backend: request %d: %w", req, err))
			return
		}
		b.served.Add(1)
	}
}

// prefill builds n pool entries on the calling goroutine.
func (b *backend) prefill(sh shape, n int) error { return b.eng.Prefill(sh.pool(), n) }

// poolStats reads the engine's hit and miss counters and ready depth.
func (b *backend) poolStats(sh shape) (hits, misses uint64, depth int) {
	hits, misses = b.eng.PoolStats()
	return hits, misses, b.eng.Depth(sh.pool())
}

// stop closes the listener, waits for every handler and reports what
// went wrong, including frame buffers the server never returned.
func (b *backend) stop() error {
	b.ln.Close()
	b.wg.Wait()
	b.eng.Stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := b.srv.ArenaOutstanding(); n != 0 {
		b.errs = append(b.errs, fmt.Errorf("backend: %d arena buffers still checked out", n))
	}
	return errors.Join(b.errs...)
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

// client runs the evaluator end over real loopback TCP, one connection
// at a time, and tallies the traffic of every connection it has had.
type client struct {
	addr string
	sh   shape
	tr   *tracer

	tcp net.Conn
	cnt *wire.Counting
	cs  *protocol.ClientSession
	// conn and req are the span coordinates of the operation in flight.
	conn, req int

	closedBytes, closedFrames int64
}

func (c *client) connect(parent int) error {
	c.conn, c.req = c.tr.nextClientConn(), -1
	return c.tr.timed(parent, "connect", c.conn, -1, func() error {
		tcp, err := net.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
		c.tcp = tcp
		c.cnt = wire.NewCounting(wire.NewStreamConn(tcp))
		return nil
	})
}

func (c *client) dial(parent int) error {
	return c.tr.timed(parent, "dial", c.conn, -1, func() error {
		cli, err := protocol.NewClient(rand.Reader)
		if err != nil {
			return err
		}
		c.cs, err = cli.WithShapeHint(c.sh.hint()).Dial(c.cnt)
		return err
	})
}

func (c *client) do(parent int, y []int64) (out []int64, err error) {
	c.req++
	err = c.tr.timed(parent, "do", c.conn, c.req, func() error {
		out, err = c.cs.Do(y)
		return err
	})
	return out, err
}

// close ends the session and the connection.
func (c *client) close(parent int) error {
	err := c.tr.timed(parent, "close", c.conn, -1, func() error {
		var err error
		if c.cs != nil {
			err = c.cs.Close()
		}
		if c.tcp != nil {
			err = errors.Join(err, c.tcp.Close())
		}
		return err
	})
	b, f := c.open()
	c.closedBytes += b
	c.closedFrames += f
	c.tcp, c.cnt, c.cs = nil, nil, nil
	return err
}

func (c *client) open() (bytes, frames int64) {
	if c.cnt == nil {
		return 0, 0
	}
	s, r, sm, rm := c.cnt.Totals()
	return s + r, sm + rm
}

// wireBytes is everything this client has put on or taken off the wire:
// payload both directions plus the 4-byte length prefix of every frame.
func (c *client) wireBytes() int64 {
	b, f := c.open()
	return c.closedBytes + b + 4*(c.closedFrames+f)
}

func isBusy(err error) bool { return errors.Is(err, protocol.ErrServerBusy) }

// ---------------------------------------------------------------------
// Layer replay
// ---------------------------------------------------------------------

// replay calls each lower layer standalone at one workload's shape and
// writes the per-layer metrics into out. minimal cuts every repeat
// count to the fewest that still emit every metric (the test's mode).
type replay struct {
	sh      shape
	A       [][]int64
	y       []int64
	want    []int64 // plaintext A·y
	minimal bool
	out     map[string]float64
	frames  [][]byte // one request's material frames, as sent
}

// n picks a repeat count.
func (r *replay) n(full, min int) int {
	if r.minimal {
		return min
	}
	return full
}

// medianOf times f n times and returns the median in the given unit.
func medianOf(n int, unit func(time.Duration) float64, f func() error) (float64, error) {
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		vals = append(vals, unit(time.Since(start)))
	}
	return median(vals), nil
}

func (r *replay) run() error {
	for _, step := range []func() error{
		r.ot, r.garbling, r.gcKernel, r.primitives, r.precompute,
		r.pipeline, r.wire, r.routing,
	} {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}

// loopback returns two ends of one established TCP connection.
func loopback() (a, b net.Conn, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	a, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		a.Close()
		return nil, nil, acc.err
	}
	return a, acc.c, nil
}

// both runs f and g concurrently and returns when both are done.
func both(f, g func() error) error {
	ch := make(chan error, 1)
	go func() { ch <- f() }()
	err := g()
	return errors.Join(err, <-ch)
}

func randomBits(n int) ([]bool, error) {
	raw := make([]byte, n)
	if _, err := rand.Read(raw); err != nil {
		return nil, err
	}
	bits := make([]bool, n)
	for i, v := range raw {
		bits[i] = v&1 == 1
	}
	return bits, nil
}

// ot prices the oblivious-transfer layer: the public-key base phase,
// the whole extension setup over loopback, and label transfer in the
// workload's batching.
func (r *replay) ot() error {
	// Base OT, 128 pairs, in-memory pipe: pure exponentiation cost.
	pa, pb := wire.Pipe()
	pairs := make([][2]ot.Message, ot.Kappa)
	for i := range pairs {
		if _, err := rand.Read(pairs[i][0][:]); err != nil {
			return err
		}
		if _, err := rand.Read(pairs[i][1][:]); err != nil {
			return err
		}
	}
	choices, err := randomBits(ot.Kappa)
	if err != nil {
		return err
	}
	var sendDur, recvDur time.Duration
	err = both(func() error {
		start := time.Now()
		err := ot.BaseSend(pa, rand.Reader, pairs)
		sendDur = time.Since(start)
		return err
	}, func() error {
		start := time.Now()
		got, err := ot.BaseReceive(pb, rand.Reader, choices)
		recvDur = time.Since(start)
		for i := range got {
			if err == nil && got[i] != pairs[i][b2i(choices[i])] {
				err = fmt.Errorf("ot replay: base transfer %d returned the wrong message", i)
			}
		}
		return err
	})
	pa.Close()
	pb.Close()
	if err != nil {
		return err
	}
	r.out["ot.base_send_ms"] = ms(sendDur)
	r.out["ot.base_recv_ms"] = ms(recvDur)

	// Extension setup over loopback TCP, until both ends hold a session.
	ca, cb, err := loopback()
	if err != nil {
		return err
	}
	defer ca.Close()
	defer cb.Close()
	cnt := wire.NewCounting(wire.NewStreamConn(ca))
	var es *ot.ExtensionSender
	var er *ot.ExtensionReceiver
	start := time.Now()
	err = both(func() (err error) {
		es, err = ot.NewExtensionSender(wire.NewStreamConn(cb), rand.Reader)
		return err
	}, func() (err error) {
		er, err = ot.NewExtensionReceiver(cnt, rand.Reader)
		return err
	})
	if err != nil {
		return err
	}
	r.out["ot.ext_setup_ms"] = ms(time.Since(start))
	s0, r0, sm0, rm0 := cnt.Totals()
	r.out["ot.setup_wire_bytes"] = float64(s0 + r0 + 4*(sm0+rm0))

	// Label transfer in the workload's batching: one batch of
	// rows·cols·b labels, or rows·cols batches of b.
	batch, rounds := r.sh.width, r.sh.macs()
	if r.sh.batched {
		batch, rounds = r.sh.macs()*r.sh.width, 1
	}
	delta, err := label.NewDelta(rand.Reader)
	if err != nil {
		return err
	}
	lp := make([]label.Pair, batch)
	for i := range lp {
		if lp[i], err = label.RandomPair(rand.Reader, delta); err != nil {
			return err
		}
	}
	bits, err := randomBits(batch)
	if err != nil {
		return err
	}
	var got []label.Label
	obj0, _ := mallocs()
	reps := r.n(3, 1)
	perReq, err := medianOf(reps, ms, func() error {
		return both(func() error {
			for i := 0; i < rounds; i++ {
				if err := ot.SendLabels(es, lp); err != nil {
					return err
				}
			}
			return nil
		}, func() (err error) {
			for i := 0; i < rounds; i++ {
				if got, err = ot.ReceiveLabels(er, bits); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	obj1, _ := mallocs()
	for i := range got {
		if got[i] != lp[i].Get(bits[i]) {
			return fmt.Errorf("ot replay: label %d is not the chosen one", i)
		}
	}
	labels := float64(reps * rounds * batch)
	s1, r1, sm1, rm1 := cnt.Totals()
	r.out["ot.labels_ms_per_req"] = perReq
	r.out["ot.round_us"] = perReq * 1000 / float64(rounds)
	r.out["ot.wire_bytes_per_label"] = float64(s1-s0+r1-r0+4*(sm1-sm0+rm1-rm0)) / labels
	r.out["ot.allocs_per_label"] = float64(obj1-obj0) / labels
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// garbling prices package circuit and package maxsim: building the MAC
// netlist, a simulator, and garbling, evaluating, pre-garbling and
// binding every row of one request. It also keeps the request's
// material frames for the codec and wire replays.
func (r *replay) garbling() error {
	cfg := r.sh.sim()
	var ckt *circuit.Circuit
	build, err := medianOf(r.n(5, 1), us, func() (err error) {
		ckt, err = circuit.MAC(circuit.MACConfig{Width: cfg.Width, AccWidth: cfg.AccWidth, Signed: cfg.Signed})
		return err
	})
	if err != nil {
		return err
	}
	r.out["circuit.mac_build_us"] = build
	ands := ckt.Stats().ANDs
	r.out["circuit.and_per_mac"] = float64(ands)

	var sim *maxsim.Simulator
	if r.out["maxsim.new_us"], err = medianOf(r.n(5, 1), us, func() (err error) {
		sim, err = maxsim.New(cfg)
		return err
	}); err != nil {
		return err
	}

	macs := float64(r.sh.macs())
	runs := make([]*maxsim.DotProductRun, r.sh.rows)
	reps := r.n(3, 1)
	obj0, by0 := mallocs()
	garble, err := medianOf(reps, ms, func() error {
		for i, row := range r.A {
			if runs[i], err = sim.GarbleDotProduct(row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	obj1, by1 := mallocs()
	r.out["maxsim.garble_ms_per_req"] = garble
	r.out["maxsim.tables_per_s"] = macs * float64(ands) / (garble / 1000)
	r.out["maxsim.garble_allocs_per_mac"] = float64(obj1-obj0) / (float64(reps) * macs)
	r.out["maxsim.garble_kb_per_mac"] = float64(by1-by0) / 1024 / (float64(reps) * macs)

	params := sim.Config().Params
	obj0, _ = mallocs()
	eval, err := medianOf(reps, ms, func() error {
		for i, run := range runs {
			got, err := maxsim.EvaluateDotProduct(params, sim.Circuit(), run, r.y, cfg.Width, cfg.Signed)
			if err != nil {
				return err
			}
			if got != r.want[i] {
				return fmt.Errorf("maxsim replay: row %d evaluates to %d, plaintext says %d", i, got, r.want[i])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	obj1, _ = mallocs()
	r.out["maxsim.eval_ms_per_req"] = eval
	r.out["maxsim.eval_allocs_per_mac"] = float64(obj1-obj0) / (float64(reps) * macs)

	pre := make([]*maxsim.PreRun, r.sh.rows)
	if r.out["maxsim.pregarble_ms_per_req"], err = medianOf(1, ms, func() error {
		for i := range pre {
			if pre[i], err = sim.PreGarbleDotProduct(r.sh.cols); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if r.out["maxsim.bind_ms_per_req"], err = medianOf(1, ms, func() error {
		for i, p := range pre {
			if _, err := p.Bind(r.A[i]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// Codec: frame every round of the request into arena buffers the
	// way the serve path does, then parse the frames back.
	arena := wire.NewArena()
	var total int
	marshal := func(keep bool) error {
		total = 0
		for _, run := range runs {
			for _, gb := range run.Rounds {
				size, err := gc.MaterialSize(&gb.Material)
				if err != nil {
					return err
				}
				buf := arena.Get(1 + size)
				buf.B = append(buf.B, 0) // the round tag the protocol puts first
				if buf.B, err = gc.AppendMaterial(buf.B, &gb.Material); err != nil {
					buf.Free()
					return err
				}
				total += size
				if keep {
					r.frames = append(r.frames, append([]byte(nil), buf.B...))
				}
				buf.Free()
			}
		}
		return nil
	}
	if r.out["gc.marshal_ms_per_req"], err = medianOf(reps, ms, func() error { return marshal(false) }); err != nil {
		return err
	}
	if err := marshal(true); err != nil {
		return err
	}
	r.out["gc.material_bytes_per_mac"] = float64(total) / macs
	if r.out["gc.unmarshal_ms_per_req"], err = medianOf(reps, ms, func() error {
		for _, f := range r.frames {
			if _, err := gc.UnmarshalMaterial(f[1:]); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// gcKernel prices Garbler.Garble and gc.Evaluate per AND gate, on a
// chain of MAC rounds with the state carried as the simulator does.
func (r *replay) gcKernel() error {
	cfg := r.sh.sim()
	ckt, err := circuit.MAC(circuit.MACConfig{Width: cfg.Width, AccWidth: cfg.AccWidth, Signed: cfg.Signed})
	if err != nil {
		return err
	}
	params := gc.DefaultParams()
	g, err := gc.NewGarbler(params, label.MustSystemDRBG())
	if err != nil {
		return err
	}
	rounds := r.n(32, 2)
	ands := float64(rounds * ckt.Stats().ANDs)
	x := circuit.Int64ToBits(r.A[0][0], cfg.Width)
	yb := circuit.Int64ToBits(r.y[0], cfg.Width)
	garbled := make([]*gc.Garbled, rounds)

	obj0, _ := mallocs()
	start := time.Now()
	var state0 []label.Label
	var tweak uint64
	for i := range garbled {
		gb, err := g.Garble(ckt, gc.GarbleOptions{GarblerInputs: x, State0: state0, TweakBase: tweak})
		if err != nil {
			return err
		}
		garbled[i], state0, tweak = gb, gb.StateOut0, gb.NextTweak
	}
	dur := time.Since(start)
	obj1, _ := mallocs()
	r.out["gc.garble_ns_per_and"] = float64(dur) / ands
	r.out["gc.garble_allocs_per_and"] = float64(obj1-obj0) / ands

	active := make([][]label.Label, rounds)
	for i, gb := range garbled {
		active[i] = make([]label.Label, len(yb))
		for j, v := range yb {
			active[i][j] = gb.EvalPairs[j].Get(v)
		}
	}
	obj0, _ = mallocs()
	start = time.Now()
	var stateAct []label.Label
	for i, gb := range garbled {
		res, err := gc.Evaluate(params, ckt, &gb.Material, active[i], stateAct)
		if err != nil {
			return err
		}
		stateAct = res.StateActive
	}
	dur = time.Since(start)
	obj1, _ = mallocs()
	r.out["gc.eval_ns_per_and"] = float64(dur) / ands
	r.out["gc.eval_allocs_per_and"] = float64(obj1-obj0) / ands
	return nil
}

// primitives prices the two leaves everything above is made of: the
// fixed-key AES garbling hash and the label DRBG.
func (r *replay) primitives() error {
	h := gchash.MustAES()
	x := label.MustRandom()
	var dst label.Label
	n := r.n(200_000, 2_000)
	start := time.Now()
	for i := 0; i < n; i++ {
		h.HashInto(&x, uint64(i), &dst)
		x = dst
	}
	r.out["gchash.aes_ns_per_hash"] = float64(time.Since(start)) / float64(n)

	d := label.MustSystemDRBG()
	buf := make([]byte, 64<<10)
	n = r.n(256, 16)
	start = time.Now()
	for i := 0; i < n; i++ {
		if _, err := d.Read(buf); err != nil {
			return err
		}
	}
	r.out["label.drbg_mb_per_s"] = float64(n*len(buf)) / (1 << 20) / time.Since(start).Seconds()
	return nil
}

// precompute prices the pool: building an entry, what a retained entry
// costs in heap, taking one and binding it to the matrix.
func (r *replay) precompute() error {
	eng, err := precompute.New(precompute.Config{Sim: r.sh.sim()})
	if err != nil {
		return err
	}
	defer eng.Stop()
	ps := r.sh.pool()
	n := r.n(3, 1)
	h0 := markHeap(true)
	if r.out["precompute.build_ms_per_entry"], err = medianOf(n, ms, func() error { return eng.Prefill(ps, 1) }); err != nil {
		return err
	}
	h1 := markHeap(true)
	r.out["precompute.entry_kb"] = (float64(h1.heapAlloc) - float64(h0.heapAlloc)) / 1024 / float64(n)

	entries := make([]*precompute.Entry, 0, n)
	if r.out["precompute.take_us"], err = medianOf(n, us, func() error {
		e := eng.Take(ps)
		if e == nil {
			return fmt.Errorf("precompute replay: pool of %d ran dry", n)
		}
		entries = append(entries, e)
		return nil
	}); err != nil {
		return err
	}
	i := 0
	if r.out["precompute.bind_ms_per_req"], err = medianOf(n, ms, func() error {
		_, err := entries[i].Bind(r.A)
		i++
		return err
	}); err != nil {
		return err
	}
	hits, misses := eng.PoolStats()
	r.out["precompute.hit_frac"] = ratio(float64(hits), float64(hits+misses))
	return nil
}

// pipeline prices the producer/consumer hand-off the serve path puts
// every garbled row through.
func (r *replay) pipeline() error {
	n := r.n(100_000, 1_000)
	start := time.Now()
	err := pipeline.Stream(context.Background(), 2, func(yield func(int) bool) error {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return nil
			}
		}
		return nil
	}, func(int) error { return nil })
	r.out["pipeline.stream_ns_per_item"] = float64(time.Since(start)) / float64(n)
	return err
}

// wire prices the transport: a round trip, receiving a frame, the
// arena, and sending one request's frames to a draining peer.
func (r *replay) wire() error {
	ca, cb, err := loopback()
	if err != nil {
		return err
	}
	defer ca.Close()
	defer cb.Close()
	a, b := wire.NewStreamConn(ca), wire.NewStreamConn(cb)

	// 64-byte ping-pong.
	n := r.n(2_000, 50)
	ping := make([]byte, 64)
	rtts := make([]float64, 0, n)
	err = both(func() error {
		for i := 0; i < n; i++ {
			m, err := b.RecvMsg()
			if err != nil {
				return err
			}
			if err := b.SendMsg(m); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := a.SendMsg(ping); err != nil {
				return err
			}
			if _, err := a.RecvMsg(); err != nil {
				return err
			}
			rtts = append(rtts, us(time.Since(start)))
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.out["wire.tcp_rtt_us"] = median(rtts)

	// One direction, 1 KiB frames: the sender reuses its buffer, so the
	// allocations counted are the receiver's.
	frame := make([]byte, 1024)
	obj0, _ := mallocs()
	err = both(func() error {
		for i := 0; i < n; i++ {
			if err := a.SendMsg(frame); err != nil {
				return err
			}
		}
		return nil
	}, func() error {
		for i := 0; i < n; i++ {
			if _, err := b.RecvMsg(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	obj1, _ := mallocs()
	r.out["wire.recv_allocs_per_frame"] = float64(obj1-obj0) / float64(n)

	arena := wire.NewArena()
	m := r.n(1_000_000, 1_000)
	start := time.Now()
	for i := 0; i < m; i++ {
		arena.Get(4096).Free()
	}
	r.out["wire.arena_get_free_ns"] = float64(time.Since(start)) / float64(m)

	// One request's material frames through the FrameWriter.
	fw := wire.NewFrameWriter(a, arena)
	var bytes int
	for _, f := range r.frames {
		bytes += len(f) + 4
	}
	send, err := medianOf(r.n(3, 1), ms, func() error {
		return both(func() error {
			for range r.frames {
				if _, err := b.RecvMsg(); err != nil {
					return err
				}
			}
			return nil
		}, func() error {
			for _, f := range r.frames {
				buf := fw.Begin(len(f))
				buf.B = append(buf.B, f...)
				if err := fw.Send(buf); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	r.out["wire.send_ms_per_req"] = send
	r.out["wire.send_mb_per_s"] = float64(bytes) / (1 << 20) / (send / 1000)
	return nil
}

// firstFrame clocks connect + shape hint → first frame back.
func (r *replay) firstFrame(addr string) (float64, error) {
	return medianOf(r.n(20, 2), us, func() error {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		defer c.Close()
		conn := wire.NewStreamConn(c)
		if err := protocol.SendShapeHint(conn, r.sh.hint()); err != nil {
			return err
		}
		_, err = conn.RecvMsg()
		return err
	})
}

// routing prices what sits in front of and beside the backend: the
// gateway's relay (first frame and steady state), the ring, and the
// observability hub. Three sessions at the workload's shape run the
// same requests in turn — direct, relayed through a gateway, and direct
// to a backend without an obs hub — so drift hits all three alike.
func (r *replay) routing() (err error) {
	var cleanup []func() error
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			err = errors.Join(err, cleanup[i]())
		}
	}()
	withObs, err := startBackend(r.sh, r.A, backendOptions{obs: true, lenient: true})
	if err != nil {
		return err
	}
	cleanup = append(cleanup, withObs.stop)
	bare, err := startBackend(r.sh, r.A, backendOptions{lenient: true})
	if err != nil {
		return err
	}
	cleanup = append(cleanup, bare.stop)
	gw, err := gateway.New(gateway.Config{Backends: []gateway.Backend{{Addr: withObs.addr()}}})
	if err != nil {
		return err
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		gw.Serve(gwLn) // returns once gwLn is closed
	}()
	cleanup = append(cleanup, func() error {
		gwLn.Close()
		<-served
		if !gw.Drain(5 * time.Second) {
			gw.KillSessions()
		}
		gw.Close()
		return nil
	})

	if r.out["protocol.first_frame_us"], err = r.firstFrame(withObs.addr()); err != nil {
		return err
	}
	if r.out["gateway.first_frame_us"], err = r.firstFrame(gwLn.Addr().String()); err != nil {
		return err
	}

	ring := gateway.NewRing(0)
	for i := 0; i < 8; i++ {
		ring.Add(fmt.Sprintf("10.0.0.%d:7931", i))
	}
	key := r.sh.hint().Key()
	n := r.n(100_000, 100)
	start := time.Now()
	for i := 0; i < n; i++ {
		ring.Lookup(key, 3)
	}
	r.out["gateway.ring_lookup_ns"] = float64(time.Since(start)) / float64(n)

	addrs := []string{withObs.addr(), gwLn.Addr().String(), bare.addr()}
	lat := make([][]float64, len(addrs))
	clients := make([]*client, len(addrs))
	for i, addr := range addrs {
		c := &client{addr: addr, sh: r.sh}
		clients[i] = c
		cleanup = append(cleanup, func() error { return c.close(0) })
		if err := c.connect(0); err != nil {
			return err
		}
		if err := c.dial(0); err != nil {
			return err
		}
	}
	reqs := r.n(8, 1)
	for k := 0; k <= reqs; k++ {
		for i, c := range clients {
			start := time.Now()
			got, err := c.do(0, r.y)
			if err != nil {
				return err
			}
			if !equal(got, r.want) {
				return fmt.Errorf("routing replay: session %d returned %v, plaintext says %v", i, got, r.want)
			}
			if k > 0 { // the first request of a session is a warm-up
				lat[i] = append(lat[i], ms(time.Since(start)))
			}
		}
	}
	direct, relayed, noObs := median(lat[0]), median(lat[1]), median(lat[2])
	r.out["gateway.relay_overhead_frac"] = ratio(relayed, direct) - 1
	r.out["obs.overhead_frac"] = ratio(direct, noObs) - 1
	return nil
}
