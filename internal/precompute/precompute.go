// Package precompute is the garbler's offline/online split: a
// background engine that pre-garbles MAC circuits per request *shape*
// into bounded pools of single-use entries, so that when a request
// arrives the serving path only has to run OT, stream the tables and
// read the decode — garbling, the compute-bound phase, happened before
// the request existed. This is the software analogue of MAXelerator
// keeping its GC cores busy every cycle: idle wall-clock time between
// requests becomes garbled tables in a pool.
//
// Security. Every pool entry is built from a fresh, independently
// seeded garbling (its own free-XOR offset and label stream) and is
// consumed exactly once — Entry.Bind is guarded by an atomic
// compare-and-swap, so even racing consumers cannot serve the same
// labels twice. Precomputing therefore preserves the paper's
// fresh-labels-per-garbling requirement verbatim: the labels are just
// as fresh, they were merely drawn earlier.
//
// Shapes are learned from traffic: a request whose shape has no pool
// misses (and is served by inline garbling, wire-identical) while the
// engine admits the shape and starts filling it in the background.
// Cold shapes are evicted least-recently-used so the pool footprint
// stays bounded.
package precompute

import (
	"crypto/rand"
	"fmt"
	"io"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
)

// Shape keys one pool: every request with the same shape is served by
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
// for every row of the shape. Bind consumes it exactly once.
type Entry struct {
	shape Shape
	rows  []*maxsim.PreRun
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
	runs := make([]*maxsim.DotProductRun, len(A))
	for i, x := range A {
		run, err := e.rows[i].Bind(x)
		if err != nil {
			return nil, err
		}
		runs[i] = run
	}
	return runs, nil
}

// Config shapes one engine.
type Config struct {
	// Sim is the accelerator configuration entries are garbled under.
	// Rand is ignored: every entry draws from its own freshly seeded
	// DRBG so entries are independent and reproducible from their seed.
	Sim maxsim.Config
	// PoolSize is the refill target per shape (default 4): background
	// workers keep each resident pool at this depth.
	PoolSize int
	// MaxShapes bounds the resident shapes (default 8); admitting one
	// more evicts the least-recently-used pool.
	MaxShapes int
	// Workers is the background refill worker count (default 1).
	Workers int
	// Metrics receives the engine's counters and gauges, and the
	// garbling accounting of entry construction. Nil disables both.
	Metrics *obs.Registry
	// SeedSource supplies entry seeds; defaults to crypto/rand. Tests
	// inject a deterministic reader to reproduce entries.
	SeedSource io.Reader
}

func (c Config) withDefaults() Config {
	if c.PoolSize == 0 {
		c.PoolSize = 4
	}
	if c.MaxShapes == 0 {
		c.MaxShapes = 8
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.SeedSource == nil {
		c.SeedSource = rand.Reader
	}
	return c
}

// pool is the per-shape entry stack plus its refill bookkeeping.
type pool struct {
	shape   Shape
	entries []*Entry
	// filling counts entries currently being built for this pool, so
	// concurrent workers never overshoot the target.
	filling int
	// lastUse is the engine tick of the most recent Take or Admit —
	// the LRU eviction order.
	lastUse uint64
	depth   *obs.Gauge
	hits    *obs.Counter
	misses  *obs.Counter
}

// Engine owns the shape-keyed pools and the background refill workers.
// All methods are safe for concurrent use; a nil *Engine is a no-op
// that always misses, so callers thread it without guards.
type Engine struct {
	cfg Config
	// sim is the compiled accelerator for cfg.Sim, built once at New;
	// every entry is garbled on its own fork.
	sim    *maxsim.Simulator
	reg    *obs.Registry
	refill *obs.Histogram
	busy   *obs.Gauge
	shapes *obs.Gauge
	evict  *obs.Counter

	mu      sync.Mutex
	pools   map[Shape]*pool
	tick    uint64
	stopped bool

	// hitCount and missCount mirror the per-shape obs counters at
	// engine granularity, independent of whether Metrics is attached —
	// benchmark harnesses read them to prove a "warm" pass really
	// served every request from the pool.
	hitCount, missCount atomic.Uint64

	seedMu sync.Mutex // SeedSource is not required to be concurrency-safe

	wake chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// buildTestHook, when non-nil, runs at the start of every entry build —
// the fault-injection seam the refill panic-containment tests use. Set
// and cleared only while no engine is running.
var buildTestHook func(Shape)

// New builds an engine. The simulator configuration is validated
// eagerly so a misconfigured engine fails at startup, not on the first
// background refill.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.PoolSize < 0 || cfg.MaxShapes < 1 || cfg.Workers < 1 {
		return nil, fmt.Errorf("precompute: invalid config (pool %d, shapes %d, workers %d)",
			cfg.PoolSize, cfg.MaxShapes, cfg.Workers)
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
		cfg:   cfg,
		sim:   sim,
		reg:   cfg.Metrics,
		pools: make(map[Shape]*pool),
		wake:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	e.refill = e.reg.Histogram("precompute_refill_seconds", "wall time to pre-garble one pool entry", nil)
	e.busy = e.reg.Gauge("precompute_refill_busy", "refill workers currently pre-garbling an entry")
	e.shapes = e.reg.Gauge("precompute_shapes", "shapes with a resident pool")
	e.evict = e.reg.Counter("precompute_evictions_total", "cold shape pools evicted (LRU)")
	return e, nil
}

// Start launches the background refill workers. Idempotent-per-engine
// lifecycles are not supported: call Start at most once, before Stop.
func (e *Engine) Start() {
	if e == nil {
		return
	}
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
}

// Stop halts the workers, waits for in-flight builds, and drains every
// pool: entries are dropped and each shape's depth gauge is set to
// zero, so a final metrics snapshot never reports phantom capacity.
// Safe to call more than once and without a prior Start.
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
	for shape, p := range e.pools {
		p.entries = nil
		p.depth.Set(0)
		delete(e.pools, shape)
	}
	e.shapes.Set(0)
}

// Admit registers a shape for background filling, evicting the
// least-recently-used pool if the shape budget is exceeded. Returns
// false for shapes that cannot be pre-garbled (empty, unknown mode or
// OT name, another accelerator configuration) or after Stop.
func (e *Engine) Admit(s Shape) bool {
	if e == nil || !s.poolable() || !e.compatible(s) {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return false
	}
	if e.admitLocked(s) {
		e.kick()
	}
	return true
}

// admitLocked ensures a pool exists for s, reporting whether it was
// created. Callers hold e.mu.
func (e *Engine) admitLocked(s Shape) bool {
	e.tick++
	if p, ok := e.pools[s]; ok {
		p.lastUse = e.tick
		return false
	}
	for len(e.pools) >= e.cfg.MaxShapes {
		e.evictLocked()
	}
	lbl := obs.L("shape", s.String())
	e.pools[s] = &pool{
		shape:   s,
		lastUse: e.tick,
		depth:   e.reg.Gauge("precompute_pool_depth", "pre-garbled entries ready per shape", lbl),
		hits:    e.reg.Counter("precompute_hits_total", "requests served from the pre-garbled pool", lbl),
		misses:  e.reg.Counter("precompute_misses_total", "requests that fell back to inline garbling", lbl),
	}
	e.shapes.Set(int64(len(e.pools)))
	return true
}

// evictLocked drops the least-recently-used pool. Callers hold e.mu.
func (e *Engine) evictLocked() {
	var victim *pool
	for _, p := range e.pools {
		if victim == nil || p.lastUse < victim.lastUse {
			victim = p
		}
	}
	if victim == nil {
		return
	}
	victim.entries = nil
	victim.depth.Set(0)
	delete(e.pools, victim.shape)
	e.evict.Inc()
	e.shapes.Set(int64(len(e.pools)))
}

// Take pops one ready entry for the shape, or nil on a miss. A miss
// admits the shape (learning it from traffic) and wakes the refill
// workers, so repeated traffic of a new shape converges to hits. The
// caller owns the returned entry; consuming it is Entry.Bind's
// single-use contract.
func (e *Engine) Take(s Shape) *Entry {
	if e == nil || !s.poolable() || !e.compatible(s) {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return nil
	}
	e.admitLocked(s)
	p := e.pools[s]
	if len(p.entries) == 0 {
		p.misses.Inc()
		e.missCount.Add(1)
		e.kick()
		return nil
	}
	ent := p.entries[len(p.entries)-1]
	p.entries = p.entries[:len(p.entries)-1]
	p.depth.Set(int64(len(p.entries)))
	p.hits.Inc()
	e.hitCount.Add(1)
	e.kick()
	return ent
}

// PoolStats snapshots the engine-wide Take outcomes: how many requests
// were served from a pool and how many fell back to inline garbling.
// Unlike the per-shape obs counters these survive a nil Metrics config,
// so benchmarks can assert a warm pass hit on every request.
func (e *Engine) PoolStats() (hits, misses uint64) {
	if e == nil {
		return 0, 0
	}
	return e.hitCount.Load(), e.missCount.Load()
}

// Shapes snapshots the admitted shapes and their ready depths — the
// advertisement payload a daemon exposes (via /shapez) so a
// shape-aware gateway can route sessions toward warm pools. Admitted
// shapes with empty pools are included: admission means the refill
// workers are already building them.
func (e *Engine) Shapes() map[Shape]int {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[Shape]int, len(e.pools))
	for s, p := range e.pools {
		out[s] = len(p.entries)
	}
	return out
}

// Depth reports the ready entries for a shape (0 for absent shapes).
func (e *Engine) Depth(s Shape) int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p, ok := e.pools[s]; ok {
		return len(p.entries)
	}
	return 0
}

// Prefill builds n entries for the shape synchronously on the calling
// goroutine — the warm-up path benchmarks and tests use to measure the
// online path without racing the background workers. The shape is
// admitted first; n may exceed the background refill target.
func (e *Engine) Prefill(s Shape, n int) error {
	if e == nil {
		return fmt.Errorf("precompute: nil engine")
	}
	if !s.poolable() || !e.compatible(s) {
		return fmt.Errorf("precompute: shape %s cannot be pre-garbled under this engine", s)
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return fmt.Errorf("precompute: engine stopped")
	}
	e.admitLocked(s)
	e.mu.Unlock()
	for i := 0; i < n; i++ {
		ent, err := e.buildEntry(s)
		if err != nil {
			return err
		}
		e.mu.Lock()
		if p, ok := e.pools[s]; ok && !e.stopped {
			p.entries = append(p.entries, ent)
			p.depth.Set(int64(len(p.entries)))
		}
		e.mu.Unlock()
	}
	return nil
}

// kick nudges the refill workers; the buffered channel coalesces
// bursts. Callers hold e.mu (or are workers themselves).
func (e *Engine) kick() {
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// worker is one background refill loop: claim a pool below target,
// pre-garble one entry, deposit, repeat; sleep on the wake channel when
// every pool is full.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		s, ok := e.claim()
		if !ok {
			select {
			case <-e.done:
				return
			case <-e.wake:
				continue
			}
		}
		e.fillOne(s)
		select {
		case <-e.done:
			return
		default:
		}
	}
}

// claim picks a shape whose pool (including in-flight builds) is below
// the refill target, reserving one build slot.
func (e *Engine) claim() (Shape, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return Shape{}, false
	}
	var best *pool
	for _, p := range e.pools {
		if len(p.entries)+p.filling >= e.cfg.PoolSize {
			continue
		}
		// Refill the most recently used (hottest) shape first.
		if best == nil || p.lastUse > best.lastUse {
			best = p
		}
	}
	if best == nil {
		return Shape{}, false
	}
	best.filling++
	return best.shape, true
}

// fillOne builds one entry for the claimed shape and deposits it. A
// panic during garbling is contained here — counted, logged, and the
// worker keeps running — reusing the same recover-don't-fail pattern as
// the protocol layer's garble-pool workers; the deferred release keeps
// the filling reservation and the busy gauge consistent on every exit.
func (e *Engine) fillOne(s Shape) {
	var ent *Entry
	var err error
	e.busy.Add(1)
	defer func() {
		if r := recover(); r != nil {
			e.reg.Counter("panics_recovered_total",
				"panics recovered and converted to per-request errors").Inc()
			log.Printf("precompute: recovered panic pre-garbling %s: %v\n%s", s, r, debug.Stack())
			ent = nil
		}
		e.busy.Add(-1)
		e.mu.Lock()
		defer e.mu.Unlock()
		if p, ok := e.pools[s]; ok {
			p.filling--
			if ent != nil && !e.stopped {
				p.entries = append(p.entries, ent)
				p.depth.Set(int64(len(p.entries)))
			}
		}
	}()
	ent, err = e.buildEntry(s)
	if err != nil {
		log.Printf("precompute: pre-garbling %s: %v", s, err)
		ent = nil
	}
}

// buildEntry pre-garbles one entry: a fresh 16-byte seed expands
// through an AES-CTR DRBG into the entry's entire label stream, so the
// entry is (a) independent of every other entry — its own free-XOR
// offset, its own labels — and (b) reproducible from the seed, which is
// what makes the determinism property testable.
func (e *Engine) buildEntry(s Shape) (*Entry, error) {
	if buildTestHook != nil {
		buildTestHook(s)
	}
	t0 := time.Now()
	var seed [16]byte
	e.seedMu.Lock()
	_, err := io.ReadFull(e.cfg.SeedSource, seed[:])
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

// buildFromSeed is the deterministic core of entry construction: one
// seeded fork of the engine's simulator pre-garbles every row, exactly
// as the inline path garbles them (same simulator reuse, same draw
// order), so the same seed yields byte-identical material either way.
func (e *Engine) buildFromSeed(s Shape, seed [16]byte) (*Entry, error) {
	drbg, err := label.NewDRBG(seed)
	if err != nil {
		return nil, err
	}
	sim, err := e.sim.Fork(drbg)
	if err != nil {
		return nil, err
	}
	rows := make([]*maxsim.PreRun, s.Rows)
	for i := range rows {
		pr, err := sim.PreGarbleDotProduct(s.Cols)
		if err != nil {
			return nil, fmt.Errorf("precompute: row %d: %w", i, err)
		}
		rows[i] = pr
	}
	return &Entry{shape: s, rows: rows}, nil
}

// BuildEntryFromSeed constructs one entry deterministically from an
// explicit seed, outside any pool. It exists for the determinism
// property tests and for reproducing an entry offline; production
// filling goes through the engine's own seed source.
func BuildEntryFromSeed(cfg maxsim.Config, s Shape, seed [16]byte) (*Entry, error) {
	sim, err := maxsim.New(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{sim: sim}
	return e.buildFromSeed(s, seed)
}
