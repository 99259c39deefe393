// Command maxd is the cloud-server daemon of Fig. 1: it owns the model
// matrix (the garbler's private input), drives the MAXelerator
// simulator to garble MAC streams, and serves privacy-preserving
// matrix-vector products to connecting clients over TCP.
//
// Usage:
//
//	maxd -listen :7700 -model model.json -b 16 -frac 6
//	maxd -listen :7700 -demo-rows 4 -demo-cols 8   # random demo model
//	maxd -listen :7700 -demo-rows 4 -metrics-addr :7701
//
// The model file holds a JSON array of rows of floats, e.g.
// [[1.0, 2.5], [0.25, -1.5]]. Each accepted connection runs one
// multiplexed protocol session (versioned handshake, one IKNP OT
// setup, then any number of client requests with per-round material
// streaming) and emits structured per-request and per-session log
// lines. -garble-workers caps the lanes that garble a request's rows;
// -max-sessions bounds the sessions in flight.
// Overflow connections queue up to -admission-wait and are then shed
// with a BUSY control frame carrying a retry-after hint (so a loaded
// daemon answers in bounded time instead of stringing clients along);
// -admission-wait 0 restores the old queue-forever behaviour.
//
// With -precompute the daemon runs an offline/online split: a background
// worker pre-garbles MAC circuits for the model's shape — the one
// shape the daemon serves, admitted at boot — into a bounded pool of
// single-use entries, so a request that hits the pool pays only OT,
// table streaming and decode online. -precompute-pool sizes the pool.
// The wire format is identical on hits and misses — an empty pool just
// garbles inline as before.
//
// Every wire operation runs under a per-phase deadline so a stalled or
// vanished client costs one timeout, never a pinned session (and with
// -max-sessions, never a leaked admission slot): -handshake-timeout
// bounds each connection-setup operation (version negotiation, base-OT
// and IKNP extension setup), -io-timeout each steady-state one
// (request open, per-round OT, material streaming, result read). Zero
// disables a deadline.
//
// With -metrics-addr the daemon exposes a live observability surface:
//
//	GET /metrics         Prometheus text exposition (garbling
//	                     throughput, stall cycles, per-core counters,
//	                     OT and session latency histograms, plus
//	                     runtime_* gauges: goroutines, heap occupancy,
//	                     GC cycles and a GC pause histogram, sampled
//	                     fresh at every scrape)
//	GET /histz           the same metrics as one JSON obs.Snapshot
//	                     (what maxtop, maxload and maxcap read)
//	GET /debug/sessions  recent session phase traces as JSON
//	GET /healthz         ok | degraded (connections queueing) |
//	                     overloaded (recently shed load; answers 503)
//	GET /shapez          the request shapes this daemon serves — always
//	                     the one model shape, pooled or not — which the
//	                     gateway (cmd/maxgw) polls to route hinted
//	                     sessions toward the backends that serve them
//
// Adding -pprof additionally mounts net/http/pprof under
// /debug/pprof/ on the same address, so CPU, heap and block profiles
// can be pulled from the live daemon:
//
//	go tool pprof http://127.0.0.1:7701/debug/pprof/profile?seconds=10
//
// On SIGINT/SIGTERM the daemon stops accepting, drains in-flight
// sessions up to -drain-timeout, and flushes a final metrics snapshot
// to the log.
//
// Everything that serves — listener, admission, session loop, precompute
// engine, HTTP surface, drain — is internal/backend, the one
// implementation maxchaos and maxcap -validate run too. This command
// adds the flags, model loading, per-request and per-session log lines,
// the memory-system trace, -once and signal handling.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"maxelerator/internal/backend"
	"maxelerator/internal/fixed"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/report"
)

// daemonConfig gathers every knob of one maxd instance: the serving
// knobs are backend.Config's fields, bound to flags directly; the rest
// say where the model comes from and when to exit.
type daemonConfig struct {
	backend.Config
	modelPath string
	frac      int
	demoRows  int
	demoCols  int
	seed      int64
	once      bool
}

func main() {
	var dc daemonConfig
	flag.StringVar(&dc.Listen, "listen", "127.0.0.1:7700", "TCP listen address")
	flag.StringVar(&dc.modelPath, "model", "", "JSON model matrix file (rows of floats)")
	flag.StringVar(&dc.MetricsAddr, "metrics-addr", "", "HTTP address for /metrics, /histz, /debug/sessions, /healthz and /shapez (empty disables)")
	flag.IntVar(&dc.Width, "b", 16, "operand bit-width (power of two)")
	flag.IntVar(&dc.frac, "frac", 6, "fixed-point fraction bits")
	flag.IntVar(&dc.demoRows, "demo-rows", 0, "serve a random demo model with this many rows")
	flag.IntVar(&dc.demoCols, "demo-cols", 4, "columns of the random demo model")
	flag.Int64Var(&dc.seed, "seed", 1, "random seed for the demo model")
	flag.BoolVar(&dc.once, "once", false, "serve a single session and exit")
	flag.DurationVar(&dc.DrainTimeout, "drain-timeout", 10*time.Second, "in-flight session drain deadline on shutdown")
	flag.IntVar(&dc.GarbleWorkers, "garble-workers", runtime.NumCPU(), "row-garbling worker pool size per request (1 = sequential)")
	flag.IntVar(&dc.MaxSessions, "max-sessions", 0, "concurrent session limit; extra connections queue (0 = unlimited)")
	flag.DurationVar(&dc.AdmissionWait, "admission-wait", 5*time.Second, "max queue wait behind -max-sessions before a BUSY rejection (0 = queue forever)")
	flag.DurationVar(&dc.Timeouts.Handshake, "handshake-timeout", 30*time.Second, "per-operation deadline for handshake and OT setup (0 = none)")
	flag.DurationVar(&dc.Timeouts.IO, "io-timeout", 2*time.Minute, "per-operation deadline for steady-state request I/O (0 = none)")
	flag.BoolVar(&dc.Precompute, "precompute", false, "pre-garble MAC circuits in the background so requests serve from a warm pool")
	flag.IntVar(&dc.PrecomputePool, "precompute-pool", 4, "precomputed entries kept ready")
	flag.BoolVar(&dc.Pprof, "pprof", false, "mount /debug/pprof/ on the metrics address (requires -metrics-addr)")
	flag.Parse()

	if err := run(dc); err != nil {
		fmt.Fprintln(os.Stderr, "maxd:", err)
		os.Exit(1)
	}
}

// loadModel reads and validates a model file: the matrix must be
// non-empty and rectangular, with every row non-empty. Validation
// happens here, at load time, so a ragged file is rejected with the
// offending row named instead of failing deep inside a session.
func loadModel(path string) ([][]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading model: %w", err)
	}
	var rows [][]float64
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, fmt.Errorf("parsing model: %w", err)
	}
	return rows, validateModel(rows)
}

// validateModel enforces the rectangular-matrix invariant the protocol
// relies on (every row is one MAC chain of identical length).
func validateModel(rows [][]float64) error {
	if len(rows) == 0 {
		return fmt.Errorf("model is empty")
	}
	cols := len(rows[0])
	if cols == 0 {
		return fmt.Errorf("model row 0 is empty")
	}
	for i, row := range rows {
		switch {
		case len(row) == 0:
			return fmt.Errorf("model row %d is empty", i)
		case len(row) != cols:
			return fmt.Errorf("model row %d has %d columns, want %d (ragged matrix)", i, len(row), cols)
		}
	}
	return nil
}

func demoModel(rows, cols int, seed int64, f fixed.Format) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, rows)
	scale := f.Max() / 8
	for i := range out {
		out[i] = make([]float64, cols)
		for j := range out[i] {
			out[i][j] = (2*rng.Float64() - 1) * scale
		}
	}
	return out
}

// traceMACLimit caps the per-session memory-system trace: the trace
// walks every modelled clock cycle, so unboundedly large sessions
// would stall the daemon. Skipped sessions are logged, not silently
// dropped.
const traceMACLimit = 4096

func run(dc daemonConfig) error {
	f := fixed.Format{Width: dc.Width, Frac: dc.frac}
	if err := f.Validate(); err != nil {
		return err
	}

	var model [][]float64
	switch {
	case dc.modelPath != "":
		m, err := loadModel(dc.modelPath)
		if err != nil {
			return err
		}
		model = m
	case dc.demoRows > 0:
		model = demoModel(dc.demoRows, dc.demoCols, dc.seed, f)
	default:
		return fmt.Errorf("either -model or -demo-rows is required")
	}
	if dc.MetricsAddr == "" && dc.Pprof {
		return fmt.Errorf("-pprof requires -metrics-addr")
	}

	raw := make([][]int64, len(model))
	for i, row := range model {
		r, err := f.EncodeVector(row)
		if err != nil {
			return fmt.Errorf("model row %d: %w", i, err)
		}
		raw[i] = r
	}

	// A daemon-owned simulator drives the post-request memory-system
	// trace (stall cycles, peak occupancy). Its registry is shared with
	// the backend's sessions; Trace is read-only on the simulator, so
	// concurrent sessions may model through it safely.
	o := obs.New(0)
	sim, err := maxsim.New(maxsim.Config{
		Width: dc.Width, AccWidth: 2 * dc.Width, Signed: true, Metrics: o.Metrics(),
	})
	if err != nil {
		return err
	}

	// -once: the first session to end, cleanly or not, ends the daemon.
	firstSessionOver := make(chan struct{})
	var once sync.Once

	cfg := dc.Config
	cfg.Matrix, cfg.Obs = raw, o
	cfg.Logf = func(format string, args ...any) { log.Printf("maxd: "+format, args...) }
	cfg.OnRequest = func(s backend.Session, resp *protocol.Response) {
		st, req := resp.Stats, s.Requests-1

		// Model the §5.1 memory system for this request's MAC stream:
		// how long would the FSM have stalled on the shared output port,
		// and how full did the core memory blocks get.
		stall := "skipped"
		if st.MACs <= traceMACLimit {
			if tres, terr := sim.Trace(maxsim.TraceConfig{MACs: int(st.MACs)}); terr == nil {
				stall = fmt.Sprintf("%.3f", tres.StallFraction())
			}
		} else {
			log.Printf("maxd: session=%s trace skipped: %d MACs exceed limit %d", s.ID, st.MACs, traceMACLimit)
		}

		dec := make([]float64, len(resp.Values))
		for i, v := range resp.Values {
			dec[i] = f.DecodeProduct(v)
		}
		log.Printf("maxd: session=%s peer=%s status=ok req=%d rows=%d macs=%d cycles=%d fpga_time=%s tables=%d table_bytes=%s pcie_time=%s stall_frac=%s",
			s.ID, s.Peer, req, len(raw), st.MACs, st.Cycles, report.Dur(st.ModeledTime),
			st.TablesGarbled, report.Bytes(st.TableBytes), report.Dur(st.PCIeTime), stall)
		log.Printf("maxd: session=%s req=%d result=%v", s.ID, req, dec)
	}
	cfg.OnSessionEnd = func(s backend.Session, err error) {
		switch {
		case err == nil:
			log.Printf("maxd: session=%s peer=%s status=closed requests=%d bytes_in=%s bytes_out=%s",
				s.ID, s.Peer, s.Requests, report.Bytes(s.BytesIn), report.Bytes(s.BytesOut))
		case !s.Established:
			log.Printf("maxd: session=%s peer=%s status=error phase=setup bytes_in=%d bytes_out=%d err=%q",
				s.ID, s.Peer, s.BytesIn, s.BytesOut, err)
		default:
			log.Printf("maxd: session=%s peer=%s status=error req=%d bytes_in=%d bytes_out=%d err=%q",
				s.ID, s.Peer, s.Requests, s.BytesIn, s.BytesOut, err)
		}
		if dc.once {
			once.Do(func() { close(firstSessionOver) })
		}
	}

	// Signals are caught before the first port is bound: from the moment
	// a peer can reach the daemon, SIGINT/SIGTERM mean a graceful drain.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	b, err := backend.Start(cfg)
	if err != nil {
		return err
	}
	log.Printf("maxd: serving %d×%d model on %s (b=%d, Q%d.%d fixed point)",
		len(raw), len(raw[0]), b.Addr(), dc.Width, dc.Width-dc.frac-1, dc.frac)
	if dc.Precompute {
		log.Printf("maxd: precompute engine on (pool=%d)", dc.PrecomputePool)
	}
	if dc.MetricsAddr != "" {
		surface := "/metrics /histz /debug/sessions /healthz /shapez"
		if dc.Pprof {
			surface += " /debug/pprof/"
		}
		log.Printf("maxd: observability on http://%s (%s)", b.MetricsAddr(), surface)
	}

	// Graceful shutdown: a signal (or -once's first session, or a dead
	// accept loop) stops intake; in-flight sessions get -drain-timeout to
	// finish before Close cancels them.
	select {
	case <-ctx.Done():
		log.Printf("maxd: signal received, draining in-flight sessions (deadline %s)", dc.DrainTimeout)
	case <-firstSessionOver:
	case <-b.Done():
	}
	if !b.Drain() {
		// Escalation is the moment metrics are most likely to be lost,
		// so flush the snapshot before the kill.
		logFinalSnapshot(o)
	}
	err = b.Close()
	logFinalSnapshot(o)
	return err
}

// logFinalSnapshot flushes the complete metrics state to the log so a
// scrape-less deployment still retains the run's totals.
func logFinalSnapshot(o *obs.Obs) {
	var sb strings.Builder
	if err := o.Metrics().WritePrometheus(&sb); err != nil || sb.Len() == 0 {
		return
	}
	log.Printf("maxd: final metrics snapshot:\n%s", sb.String())
}
