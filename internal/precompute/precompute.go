// Package precompute is the garbler's offline/online split: a
// background engine that pre-garbles MAC circuits for one request
// *shape* into a bounded pool of single-use entries, so that when a
// request arrives the serving path only has to run OT, stream the
// tables and read the decode — garbling, the compute-bound phase,
// happened before the request existed. This is the software analogue
// of MAXelerator keeping its GC cores busy every cycle: idle wall-clock
// time between requests becomes garbled tables in a pool.
//
// Security. Every pool entry is one request garbled from its own fresh
// seed (its own free-XOR offset and labels, gc.Request) and is
// consumed exactly once — Entry.Bind is guarded by an atomic
// compare-and-swap, so even racing consumers cannot serve the same
// labels twice. Precomputing therefore preserves the paper's
// fresh-labels-per-garbling requirement verbatim: the labels are just
// as fresh, they were merely drawn earlier.
//
// One engine holds one shape — a backend serves one model — fixed by
// the first Admit or Prefill. Nothing is learned from traffic: a
// request of any other shape, or one that finds the pool empty, misses
// and is served by inline garbling, wire-identical.
package precompute

import (
	"fmt"
	"io"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/gc"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
)

// Shape keys the pool: every request with the same shape is served by
// the same pre-garbled material layout.
type Shape struct {
	// Rows and Cols are the request matrix dimensions.
	Rows, Cols int
	// Width is the operand bit-width; Signed the datapath signedness.
	Width  int
	Signed bool
	// Mode is the wire name of the datapath ("matvec", the only one
	// there is).
	Mode string
	// OT is the label-transfer mode name ("per-round" or "batched").
	OT string
}

// String renders the shape as a metric label value.
func (s Shape) String() string {
	sign := "u"
	if s.Signed {
		sign = "s"
	}
	return fmt.Sprintf("%dx%d/b%d%s/%s/%s", s.Rows, s.Cols, s.Width, sign, s.Mode, s.OT)
}

// compatible rejects shapes garbled under a different accelerator
// configuration than the engine's — an entry of the wrong width would
// produce material the request cannot use.
func (e *Engine) compatible(s Shape) bool {
	return s.Width == e.cfg.Sim.Width && s.Signed == e.cfg.Sim.Signed
}

// poolable reports whether the shape can be pre-garbled at all.
func (s Shape) poolable() bool {
	if s.Rows <= 0 || s.Cols <= 0 || s.Mode != "matvec" {
		return false
	}
	return s.OT == "per-round" || s.OT == "batched"
}

// Entry is one single-use pre-garbled request: fresh labels and tables
// for every row of the shape, garbled for a zero matrix. Bind consumes
// it exactly once.
type Entry struct {
	shape Shape
	rows  []*maxsim.DotProductRun
	used  atomic.Bool
}

// ErrConsumed is returned by Bind on an entry that was already bound —
// the single-use invariant refusing to serve the same labels twice.
var ErrConsumed = fmt.Errorf("precompute: entry already consumed")

// Shape returns the entry's pool key.
func (e *Entry) Shape() Shape { return e.shape }

// Bind consumes the entry for the garbler matrix A, returning one
// complete run per row. The compare-and-swap makes consumption
// race-safe: exactly one caller ever receives the material.
func (e *Entry) Bind(A [][]int64) ([]*maxsim.DotProductRun, error) {
	if !e.used.CompareAndSwap(false, true) {
		return nil, ErrConsumed
	}
	if len(A) != len(e.rows) {
		return nil, fmt.Errorf("precompute: binding %d rows to a %d-row entry", len(A), len(e.rows))
	}
	for i, x := range A {
		if err := maxsim.BindRounds(e.rows[i].Rounds, x, e.shape.Width, e.shape.Signed); err != nil {
			return nil, fmt.Errorf("precompute: row %d: %w", i, err)
		}
	}
	return e.rows, nil
}

// Config shapes one engine.
type Config struct {
	// Sim is the accelerator configuration entries are garbled under;
	// each entry's 16-byte seed is read from Sim.Rand.
	Sim maxsim.Config
	// PoolSize is the refill target (default 4): the background worker
	// keeps the pool at this depth.
	PoolSize int
	// Metrics receives the engine's counters and gauges, and the
	// garbling accounting of entry construction. Nil disables both.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.PoolSize == 0 {
		c.PoolSize = 4
	}
	return c
}

// Engine owns the one pool and its background refill worker. All
// methods are safe for concurrent use; a nil *Engine is a no-op that
// always misses, so callers thread it without guards.
type Engine struct {
	cfg Config
	// sim is the compiled accelerator for cfg.Sim, built once at New;
	// every entry is one request on its circuit.
	sim    *maxsim.Simulator
	reg    *obs.Registry
	refill *obs.Histogram
	busy   *obs.Gauge

	mu sync.Mutex
	// shape is the one shape the pool holds: the zero Shape (which is
	// not poolable) until the first Admit or Prefill fixes it, which
	// also registers the three shape-labelled metrics below.
	shape   Shape
	entries []*Entry
	depth   *obs.Gauge
	hits    *obs.Counter
	misses  *obs.Counter
	stopped bool

	// hitCount and missCount count every Take outcome, independent of
	// whether Metrics is attached — benchmark harnesses read them to
	// prove a "warm" pass really served every request from the pool.
	hitCount, missCount atomic.Uint64

	seedMu sync.Mutex // cfg.Sim.Rand is not required to be concurrency-safe

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// buildTestHook, when non-nil, runs at the start of every entry build —
// the fault-injection seam the refill panic-containment tests use. Set
// and cleared only while no engine is running.
var buildTestHook func(Shape)

// refillRetry is how long the refill worker leaves a build that failed
// before trying again, unless a wake comes first: a build that fails
// every time must not spin.
const refillRetry = time.Second

// New builds an engine. The simulator configuration is validated
// eagerly so a misconfigured engine fails at startup, not on the first
// background refill.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.PoolSize < 0 {
		return nil, fmt.Errorf("precompute: invalid config (pool %d)", cfg.PoolSize)
	}
	simCfg := cfg.Sim
	simCfg.Metrics = cfg.Metrics
	sim, err := maxsim.New(simCfg)
	if err != nil {
		return nil, fmt.Errorf("precompute: %w", err)
	}
	// Keep the resolved configuration (defaults applied) so shape
	// compatibility checks compare against what entries are actually
	// garbled under.
	cfg.Sim = sim.Config()
	e := &Engine{
		cfg:  cfg,
		sim:  sim,
		reg:  cfg.Metrics,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	e.refill = e.reg.Histogram("precompute_refill_seconds", "wall time to pre-garble one pool entry", nil)
	e.busy = e.reg.Gauge("precompute_refill_busy", "1 while the refill worker is pre-garbling an entry")
	return e, nil
}

// Start launches the background refill worker. Idempotent-per-engine
// lifecycles are not supported: call Start at most once, before Stop.
func (e *Engine) Start() {
	if e == nil {
		return
	}
	e.wg.Add(1)
	go e.worker()
}

// Stop halts the worker, waits for an in-flight build, and drains the
// pool: entries are dropped and the depth gauge is set to zero, so a
// final metrics snapshot never reports phantom capacity. Safe to call
// more than once and without a prior Start.
func (e *Engine) Stop() {
	if e == nil {
		return
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	e.mu.Unlock()
	close(e.done)
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.entries = nil
	e.depth.Set(0)
}

// Admit fixes s as the engine's shape and starts filling it in the
// background; admitting the same shape again is a no-op that reports
// true. Returns false for shapes that cannot be pre-garbled (empty,
// unknown mode or OT name, another accelerator configuration), for any
// shape other than the one already admitted, and after Stop.
func (e *Engine) Admit(s Shape) bool {
	return e != nil && e.admit(s) == nil
}

// admit is Admit with the refusal spelled out, for Prefill to return.
func (e *Engine) admit(s Shape) error {
	if !s.poolable() || !e.compatible(s) {
		return fmt.Errorf("precompute: shape %s cannot be pre-garbled under this engine", s)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.stopped:
		return fmt.Errorf("precompute: engine stopped")
	case e.shape == s:
		return nil
	case e.shape != (Shape{}):
		return fmt.Errorf("precompute: engine holds shape %s, cannot admit %s", e.shape, s)
	}
	e.shape = s
	lbl := obs.L("shape", s.String())
	e.depth = e.reg.Gauge("precompute_pool_depth", "pre-garbled entries ready per shape", lbl)
	e.hits = e.reg.Counter("precompute_hits_total", "requests served from the pre-garbled pool", lbl)
	e.misses = e.reg.Counter("precompute_misses_total", "requests that fell back to inline garbling", lbl)
	e.kick()
	return nil
}

// Take pops one ready entry, or nil on a miss: the pool is empty, or s
// is not the admitted shape — the argument is the guard that a request
// of another shape is never handed this pool's material. A miss admits
// nothing; the caller garbles inline. The caller owns the returned
// entry; consuming it is Entry.Bind's single-use contract.
func (e *Engine) Take(s Shape) *Entry {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return nil
	}
	if s != e.shape || len(e.entries) == 0 {
		e.missCount.Add(1)
		if s == e.shape {
			e.misses.Inc()
		}
		return nil
	}
	ent := e.entries[len(e.entries)-1]
	e.entries = e.entries[:len(e.entries)-1]
	e.depth.Set(int64(len(e.entries)))
	e.hits.Inc()
	e.hitCount.Add(1)
	e.kick()
	return ent
}

// PoolStats snapshots the engine-wide Take outcomes: how many requests
// were served from the pool and how many fell back to inline garbling.
// Unlike the shape-labelled obs counters these survive a nil Metrics
// config and count misses of a foreign shape, so benchmarks can assert
// a warm pass hit on every request.
func (e *Engine) PoolStats() (hits, misses uint64) {
	if e == nil {
		return 0, 0
	}
	return e.hitCount.Load(), e.missCount.Load()
}

// Depth reports the ready entries for a shape (0 for any shape other
// than the admitted one).
func (e *Engine) Depth(s Shape) int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if s != e.shape {
		return 0
	}
	return len(e.entries)
}

// Prefill builds n entries for the shape synchronously on the calling
// goroutine — the warm-up path benchmarks and tests use to measure the
// online path without racing the background worker. The shape is
// admitted first; n may exceed the background refill target.
func (e *Engine) Prefill(s Shape, n int) error {
	if e == nil {
		return fmt.Errorf("precompute: nil engine")
	}
	if err := e.admit(s); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		ent, err := e.buildEntry(s)
		if err != nil {
			return err
		}
		e.deposit(ent)
	}
	return nil
}

// deposit pushes a built entry onto the pool; a stopped engine drops it.
func (e *Engine) deposit(ent *Entry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return
	}
	e.entries = append(e.entries, ent)
	e.depth.Set(int64(len(e.entries)))
}

// kick nudges the refill worker; the buffered channel coalesces bursts.
// Callers hold e.mu.
func (e *Engine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// worker is the background refill loop: while the pool is below target,
// pre-garble one entry and deposit it; sleep on the wake channel when
// the pool is full, and after a failed build until the next wake or
// refillRetry, whichever comes first.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		var retry <-chan time.Time
		if s, ok := e.wanted(); ok {
			if e.fillOne(s) {
				continue
			}
			retry = time.After(refillRetry)
		}
		select {
		case <-e.done:
			return
		case <-e.wake:
		case <-retry:
		}
	}
}

// wanted reports the admitted shape while its pool is below the refill
// target and the engine is running.
func (e *Engine) wanted() (Shape, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.shape, !e.stopped && e.shape != (Shape{}) && len(e.entries) < e.cfg.PoolSize
}

// fillOne builds one entry and deposits it, reporting whether the build
// succeeded. A panic during garbling is contained here — counted,
// logged, and the worker keeps running — reusing the same
// recover-don't-fail pattern as the protocol layer's garble-pool
// workers; the deferred release keeps the busy gauge consistent on
// every exit.
func (e *Engine) fillOne(s Shape) (ok bool) {
	e.busy.Add(1)
	defer func() {
		if r := recover(); r != nil {
			e.reg.Counter("panics_recovered_total",
				"panics recovered and converted to per-request errors").Inc()
			log.Printf("precompute: recovered panic pre-garbling %s: %v\n%s", s, r, debug.Stack())
			ok = false
		}
		e.busy.Add(-1)
	}()
	ent, err := e.buildEntry(s)
	if err != nil {
		log.Printf("precompute: pre-garbling %s: %v", s, err)
		return false
	}
	e.deposit(ent)
	return true
}

// buildEntry pre-garbles one entry from a fresh 16-byte seed, which
// keys the entry's whole request, so the entry is (a) independent of
// every other entry — its own free-XOR offset, its own labels — and (b)
// reproducible from the seed, which is what makes the determinism
// property testable.
func (e *Engine) buildEntry(s Shape) (*Entry, error) {
	if buildTestHook != nil {
		buildTestHook(s)
	}
	t0 := time.Now()
	var seed [16]byte
	e.seedMu.Lock()
	_, err := io.ReadFull(e.cfg.Sim.Rand, seed[:])
	e.seedMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("precompute: drawing entry seed: %w", err)
	}
	ent, err := e.buildFromSeed(s, seed)
	if err != nil {
		return nil, err
	}
	e.refill.Observe(time.Since(t0).Seconds())
	return ent, nil
}

// buildFromSeed is the deterministic core of entry construction: the
// request garbler the inline path runs, keyed from seed, garbles every
// row for x = 0, so the same seed yields byte-identical material either
// way once Bind selects the real inputs. The rounds count as garbled now.
func (e *Engine) buildFromSeed(s Shape, seed [16]byte) (*Entry, error) {
	req, err := gc.NewRequest(e.sim.Config().Params, e.sim.Circuit(), s.Cols, seed)
	if err != nil {
		return nil, err
	}
	zero := make([][]int64, s.Rows)
	for i := range zero {
		zero[i] = make([]int64, s.Cols)
	}
	rows, err := e.sim.GarbleRows(req, zero)
	if err != nil {
		return nil, fmt.Errorf("precompute: %w", err)
	}
	return &Entry{shape: s, rows: rows}, nil
}
