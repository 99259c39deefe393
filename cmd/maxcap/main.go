// Command maxcap is the capacity-model CLI: it predicts how a maxd
// fleet behaves under offered load using the discrete-event simulator
// in internal/capmodel, calibrated from measured execution times.
//
// Three modes:
//
//	maxcap -simulate -rate 50 -duration 30s -backends 2 -pool 4
//	    Predict one scenario's report. Calibration precedence:
//	    -calib snapshot.json (a daemon's /histz export) beats
//	    -grid BENCH_PR5.json (a committed maxbench grid) beats
//	    the analytic fallback (paper cycle counts + PCIe drain).
//
//	maxcap -capacity -slo-p99 250 -backends-sweep 1,2,4 \
//	       -pool-sweep 0,4,16 -sessions-sweep 4,16
//	    Sweep fleet configurations and print the sustainable QPS of
//	    each at the p99 SLO — the operator-facing capacity table.
//
//	maxcap -validate -rate 4 -duration 5s [-addr HOST:PORT]
//	    Close the loop: run the open-loop generator against a real
//	    backend (an in-process internal/backend — the code maxd runs —
//	    by default, or -addr for an external daemon with -metrics),
//	    calibrate the simulator from
//	    that very run's histograms, replay the identical arrival
//	    schedule, and exit non-zero if prediction misses measurement
//	    by more than the tolerance band.
//
// All three modes share the scenario flags (-rate, -process, -burst,
// -duration, -seed, -max-inflight, -shapes) with maxload, and the
// arrival schedule is seed-deterministic, so a maxload measurement and
// a maxcap prediction of the same flags describe the same arrivals.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"maxelerator/internal/backend"
	"maxelerator/internal/benchgrid"
	"maxelerator/internal/capmodel"
	"maxelerator/internal/load"
	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
)

type cliConfig struct {
	simulate, capacity, validate bool

	// scenario
	rate        float64
	process     string
	burst       int
	duration    time.Duration
	seed        int64
	maxInflight int
	shapes      string

	// fleet
	backends, maxSessions, cpus, pool, refill int
	admissionWait                             time.Duration
	coldStart                                 bool

	// calibration
	calibPath, gridPath string

	// capacity sweep
	sloP99                                  float64
	backendsSweep, poolSweep, sessionsSweep string

	// validate
	addr, metricsURL              string
	tolFactor, tolSlackMs, tolHit float64

	jsonOut bool
}

func main() {
	var c cliConfig
	flag.BoolVar(&c.simulate, "simulate", false, "predict one scenario's report")
	flag.BoolVar(&c.capacity, "capacity", false, "sweep fleet configs for sustainable QPS")
	flag.BoolVar(&c.validate, "validate", false, "measure a real backend, then check the prediction against it")

	flag.Float64Var(&c.rate, "rate", 10, "offered arrival rate, sessions/second")
	flag.StringVar(&c.process, "process", "poisson", "arrival process: poisson, uniform or burst")
	flag.IntVar(&c.burst, "burst", 8, "arrivals per clump under -process burst")
	flag.DurationVar(&c.duration, "duration", 30*time.Second, "arrival window")
	flag.Int64Var(&c.seed, "seed", 1, "schedule seed")
	flag.IntVar(&c.maxInflight, "max-inflight", 64, "client-side concurrent session cap; 0 = unlimited")
	flag.StringVar(&c.shapes, "shapes", "4x4/b=8", "weighted shape mix (maxload syntax)")

	flag.IntVar(&c.backends, "backends", 1, "simulated backend count")
	flag.IntVar(&c.maxSessions, "max-sessions", 8, "per-backend session limit; 0 = unlimited")
	flag.DurationVar(&c.admissionWait, "admission-wait", 2*time.Second, "per-backend queue wait before BUSY (0 = queue forever, as maxd)")
	flag.IntVar(&c.cpus, "cpus", 0, "per-backend compute parallelism (default: max-inflight, see DESIGN.md §15)")
	flag.IntVar(&c.pool, "pool", 4, "precompute pool depth per shape; 0 = no pool")
	flag.IntVar(&c.refill, "refill-workers", 1, "background refill parallelism")
	flag.BoolVar(&c.coldStart, "cold-start", false, "start pools empty instead of warm")

	flag.StringVar(&c.calibPath, "calib", "", "calibrate from a /histz snapshot JSON file")
	flag.StringVar(&c.gridPath, "grid", "", "calibrate from a committed maxbench grid (BENCH_PR*.json)")

	flag.Float64Var(&c.sloP99, "slo-p99", 250, "capacity sweep: p99 latency SLO in ms")
	flag.StringVar(&c.backendsSweep, "backends-sweep", "1,2,4", "capacity sweep: backend counts")
	flag.StringVar(&c.poolSweep, "pool-sweep", "0,4", "capacity sweep: pool depths")
	flag.StringVar(&c.sessionsSweep, "sessions-sweep", "8", "capacity sweep: max-sessions values")

	flag.StringVar(&c.addr, "addr", "", "validate: external daemon address (default: boot an in-process backend)")
	flag.StringVar(&c.metricsURL, "metrics", "", "validate: external daemon observability base URL (required with -addr)")
	flag.Float64Var(&c.tolFactor, "tol-factor", capmodel.DefaultTolerance.LatencyFactor, "validate: latency tolerance factor")
	flag.Float64Var(&c.tolSlackMs, "tol-slack-ms", capmodel.DefaultTolerance.LatencySlackMs, "validate: absolute latency slack, ms")
	flag.Float64Var(&c.tolHit, "tol-hit", capmodel.DefaultTolerance.HitRateAbs, "validate: absolute pool hit-rate tolerance")

	flag.BoolVar(&c.jsonOut, "json", false, "emit JSON on stdout")
	flag.Parse()

	if err := run(c); err != nil {
		fmt.Fprintln(os.Stderr, "maxcap:", err)
		os.Exit(1)
	}
}

func run(c cliConfig) error {
	mix, err := load.ParseShapes(c.shapes)
	if err != nil {
		return err
	}
	sc := load.Scenario{
		Rate: c.rate, Process: c.process, BurstSize: c.burst,
		DurationSec: c.duration.Seconds(), Seed: c.seed,
		MaxInflight: c.maxInflight, Shapes: mix,
	}
	cpus := c.cpus
	if cpus <= 0 {
		cpus = c.maxInflight
		if cpus <= 0 {
			cpus = 64
		}
	}
	fl := capmodel.Fleet{
		Backends: c.backends, MaxSessions: c.maxSessions,
		AdmissionWaitSec: c.admissionWait.Seconds(),
		CPUs:             cpus, PoolDepth: c.pool, RefillWorkers: c.refill,
		WarmStart: !c.coldStart,
	}
	switch {
	case c.validate:
		return runValidate(c, sc, fl)
	case c.capacity:
		return runCapacity(c, sc, fl, mix)
	case c.simulate:
		return runSimulate(c, sc, fl, mix)
	default:
		return fmt.Errorf("pick a mode: -simulate, -capacity or -validate")
	}
}

// calibrate resolves the calibration with the documented precedence:
// snapshot file, then grid file, then analytic. The reference shape is
// the mix's heaviest entry.
func calibrate(c cliConfig, mix []load.ShapeWeight) (*capmodel.Calibration, error) {
	ref := mix[0]
	for _, sw := range mix {
		if sw.Weight > ref.Weight {
			ref = sw
		}
	}
	if c.calibPath != "" {
		f, err := os.Open(c.calibPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		snap, err := obs.DecodeSnapshot(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.calibPath, err)
		}
		return capmodel.FromSnapshot(snap, ref.Rows, ref.Cols, ref.Width)
	}
	if c.gridPath != "" {
		g, err := benchgrid.Load(c.gridPath)
		if err != nil {
			return nil, err
		}
		return capmodel.FromGrid(g, ref.Rows, ref.Cols, ref.Width)
	}
	return capmodel.Analytic(ref.Rows, ref.Cols, ref.Width)
}

func runSimulate(c cliConfig, sc load.Scenario, fl capmodel.Fleet, mix []load.ShapeWeight) error {
	cal, err := calibrate(c, mix)
	if err != nil {
		return err
	}
	r, err := capmodel.Simulate(sc, fl, cal)
	if err != nil {
		return err
	}
	if c.jsonOut {
		return emit(r)
	}
	fmt.Printf("maxcap: %s calibration, %d backend(s), pool %d, sessions %d\n",
		r.CalibrationSource, fl.Backends, fl.PoolDepth, fl.MaxSessions)
	fmt.Printf("  offered   %6d (%.1f/s)   succeeded %d (%.1f/s)   shed %d   skipped %d\n",
		r.Offered, r.OfferedRate, r.Succeeded, r.AchievedRate, r.Shed, r.Skipped)
	fmt.Printf("  latency   p50 %.1fms  p95 %.1fms  p99 %.1fms  mean %.1fms\n",
		r.Latency.P50Ms, r.Latency.P95Ms, r.Latency.P99Ms, r.Latency.MeanMs)
	if r.Pool != nil {
		fmt.Printf("  pool      %.0f%% hit rate (%d/%d)\n",
			r.Pool.HitRate*100, r.Pool.Hits, r.Pool.Hits+r.Pool.Misses)
	}
	fmt.Printf("  queueing  admission %.1fms  cpu %.1fms  cpu-util %.2f\n",
		r.MeanAdmissionWaitMs, r.MeanCPUWaitMs, r.CPUUtilization)
	return nil
}

func runCapacity(c cliConfig, sc load.Scenario, fl capmodel.Fleet, mix []load.ShapeWeight) error {
	cal, err := calibrate(c, mix)
	if err != nil {
		return err
	}
	backends, err := parseInts(c.backendsSweep)
	if err != nil {
		return err
	}
	pools, err := parseInts(c.poolSweep)
	if err != nil {
		return err
	}
	sessions, err := parseInts(c.sessionsSweep)
	if err != nil {
		return err
	}
	slo := capmodel.SLO{P99Ms: c.sloP99}
	table, err := capmodel.CapacityTable(sc, fl, cal, slo, backends, pools, sessions)
	if err != nil {
		return err
	}
	if c.jsonOut {
		return emit(map[string]any{
			"slo": slo, "calibration": cal.Source, "scenario": sc, "table": table,
		})
	}
	fmt.Printf("maxcap: sustainable QPS at p99 ≤ %.0fms (%s calibration, %s arrivals)\n",
		c.sloP99, cal.Source, sc.Process)
	fmt.Printf("  %-9s %-6s %-13s %s\n", "backends", "pool", "max-sessions", "QPS")
	for _, cell := range table {
		fmt.Printf("  %-9d %-6d %-13d %.1f\n", cell.Backends, cell.PoolDepth, cell.MaxSessions, cell.QPS)
	}
	return nil
}

// validateReport is the -validate JSON artifact: measurement,
// prediction, tolerance, violations, and summary error figures.
type validateReport struct {
	Measured   *load.Report           `json:"measured"`
	Predicted  *capmodel.Result       `json:"predicted"`
	Tolerance  capmodel.ToleranceBand `json:"tolerance"`
	Violations []string               `json:"violations"`
	Err        map[string]float64     `json:"error"`
	Pass       bool                   `json:"pass"`
}

func runValidate(c cliConfig, sc load.Scenario, fl capmodel.Fleet) error {
	ref := sc.Shapes[0]
	lcfg := load.Config{Scenario: sc}
	if c.addr != "" {
		if c.metricsURL == "" {
			return fmt.Errorf("-addr needs -metrics to scrape the calibration snapshot")
		}
		lcfg.Target, lcfg.MetricsURL = c.addr, c.metricsURL
	} else {
		// The real backend one simulated backend of fl stands for, serving
		// a small fixed model of the reference shape (garbling cost does
		// not depend on the values).
		lcfg.Matrix = make([][]int64, ref.Rows)
		for i := range lcfg.Matrix {
			lcfg.Matrix[i] = make([]int64, ref.Cols)
			for j := range lcfg.Matrix[i] {
				lcfg.Matrix[i][j] = int64((i+j)%7 - 3)
			}
		}
		b, err := backend.Start(backend.Config{
			Listen: "127.0.0.1:0", Matrix: lcfg.Matrix, Width: ref.Width,
			MaxSessions: fl.MaxSessions, AdmissionWait: c.admissionWait,
			Timeouts:   protocol.Timeouts{Handshake: 10 * time.Second, IO: 10 * time.Second},
			Precompute: fl.PoolDepth > 0, PrecomputePool: fl.PoolDepth,
		})
		if err != nil {
			return err
		}
		defer b.Close()
		if fl.WarmStart {
			if err := b.Prefill(fl.PoolDepth); err != nil {
				return err
			}
		}
		lcfg.Target, lcfg.Registry = b.Addr(), b.Registry()
	}

	measured, err := load.Run(lcfg)
	if err != nil {
		return err
	}
	if measured.Succeeded == 0 {
		return fmt.Errorf("live run produced no successful sessions (offered %d, shed %d, failed %d)",
			measured.Offered, measured.Shed, measured.Failed)
	}
	if measured.Miscomputed > 0 {
		return fmt.Errorf("live run returned %d wrong results", measured.Miscomputed)
	}

	var snap *obs.Snapshot
	if lcfg.Registry != nil {
		snap = lcfg.Registry.Snapshot()
	} else {
		snap, err = load.FetchSnapshot(c.metricsURL)
		if err != nil {
			return err
		}
	}
	cal, err := capmodel.FromSnapshot(snap, ref.Rows, ref.Cols, ref.Width)
	if err != nil {
		return err
	}
	predicted, err := capmodel.Simulate(sc, fl, cal)
	if err != nil {
		return err
	}

	tol := capmodel.ToleranceBand{LatencyFactor: c.tolFactor, LatencySlackMs: c.tolSlackMs, HitRateAbs: c.tolHit}
	viol := capmodel.Validate(measured, predicted, tol)
	rep := validateReport{
		Measured: measured, Predicted: predicted, Tolerance: tol,
		Violations: viol, Err: capmodel.Error(measured, predicted), Pass: len(viol) == 0,
	}
	if c.jsonOut {
		if err := emit(rep); err != nil {
			return err
		}
	} else {
		fmt.Printf("maxcap validate: measured p50 %.1fms p99 %.1fms | predicted p50 %.1fms p99 %.1fms\n",
			measured.Latency.P50Ms, measured.Latency.P99Ms,
			predicted.Latency.P50Ms, predicted.Latency.P99Ms)
		if measured.Pool != nil && predicted.Pool != nil {
			fmt.Printf("  pool hit-rate: measured %.2f, predicted %.2f\n",
				measured.Pool.HitRate, predicted.Pool.HitRate)
		}
		fmt.Printf("  error: %+v\n", rep.Err)
		for _, v := range viol {
			fmt.Println("  VIOLATION:", v)
		}
	}
	if len(viol) > 0 {
		return fmt.Errorf("prediction outside tolerance (%d violation(s))", len(viol))
	}
	return nil
}

func emit(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitComma(s) {
		var n int
		if _, err := fmt.Sscanf(p, "%d", &n); err != nil {
			return nil, fmt.Errorf("bad integer list entry %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty integer list")
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s + "," {
		if r == ',' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		if r != ' ' {
			cur += string(r)
		}
	}
	return out
}
