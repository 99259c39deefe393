// Command maxcap is the capacity-model CLI: it predicts how a maxd
// fleet behaves under offered load using the discrete-event simulator
// in internal/capmodel, calibrated from measured execution times.
//
// Three modes:
//
//	maxcap -simulate -rate 50 -duration 30s -backends 2 -pool 4
//	    Predict one scenario's report, calibrated from
//	    -calib snapshot.json (a daemon's /histz export) or, without
//	    it, the analytic model (paper cycle counts + PCIe drain).
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
// -duration, -seed, -max-inflight, -shape) with maxload, and the
// arrival schedule is seed-deterministic, so a maxload measurement and
// a maxcap prediction of the same flags describe the same arrivals.
// -shape is the one model every backend of the fleet serves: one pool
// and one refill worker per backend, as precompute.Engine.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"maxelerator/internal/backend"
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
	shape       string

	// fleet
	backends, maxSessions, cpus, pool int
	admissionWait                     time.Duration
	coldStart                         bool

	// calibration
	calibPath string

	// capacity sweep
	sloP99                                  float64
	backendsSweep, poolSweep, sessionsSweep string

	// validate
	addr, metricsURL              string
	tolFactor, tolSlackMs, tolHit float64

	jsonOut bool
}

func main() {
	if err := run(parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "maxcap:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) cliConfig {
	var c cliConfig
	fs := flag.NewFlagSet("maxcap", flag.ExitOnError)
	fs.BoolVar(&c.simulate, "simulate", false, "predict one scenario's report")
	fs.BoolVar(&c.capacity, "capacity", false, "sweep fleet configs for sustainable QPS")
	fs.BoolVar(&c.validate, "validate", false, "measure a real backend, then check the prediction against it")

	fs.Float64Var(&c.rate, "rate", 10, "offered arrival rate, sessions/second")
	fs.StringVar(&c.process, "process", "poisson", "arrival process: poisson, uniform or burst")
	fs.IntVar(&c.burst, "burst", 8, "arrivals per clump under -process burst")
	fs.DurationVar(&c.duration, "duration", 30*time.Second, "arrival window")
	fs.Int64Var(&c.seed, "seed", 1, "schedule seed")
	fs.IntVar(&c.maxInflight, "max-inflight", 64, "client-side concurrent session cap; 0 = unlimited")
	fs.StringVar(&c.shape, "shape", "4x4/b=8", "shape of the model the fleet serves, ROWSxCOLS/b=WIDTH")

	fs.IntVar(&c.backends, "backends", 1, "simulated backend count")
	fs.IntVar(&c.maxSessions, "max-sessions", 8, "per-backend session limit; 0 = unlimited")
	fs.DurationVar(&c.admissionWait, "admission-wait", 2*time.Second, "per-backend queue wait before BUSY (0 = queue forever, as maxd)")
	fs.IntVar(&c.cpus, "cpus", 0, "per-backend compute parallelism (default: max-inflight, see DESIGN.md §15)")
	fs.IntVar(&c.pool, "pool", 4, "precompute pool depth per backend; 0 = no pool")
	fs.BoolVar(&c.coldStart, "cold-start", false, "start pools empty instead of warm")

	fs.StringVar(&c.calibPath, "calib", "", "calibrate from a /histz snapshot JSON file")

	fs.Float64Var(&c.sloP99, "slo-p99", 250, "capacity sweep: p99 latency SLO in ms")
	fs.StringVar(&c.backendsSweep, "backends-sweep", "1,2,4", "capacity sweep: backend counts")
	fs.StringVar(&c.poolSweep, "pool-sweep", "0,4", "capacity sweep: pool depths")
	fs.StringVar(&c.sessionsSweep, "sessions-sweep", "8", "capacity sweep: max-sessions values")

	fs.StringVar(&c.addr, "addr", "", "validate: external daemon address (default: boot an in-process backend)")
	fs.StringVar(&c.metricsURL, "metrics", "", "validate: external daemon observability base URL (required with -addr)")
	fs.Float64Var(&c.tolFactor, "tol-factor", capmodel.DefaultTolerance.LatencyFactor, "validate: latency tolerance factor")
	fs.Float64Var(&c.tolSlackMs, "tol-slack-ms", capmodel.DefaultTolerance.LatencySlackMs, "validate: absolute latency slack, ms")
	fs.Float64Var(&c.tolHit, "tol-hit", capmodel.DefaultTolerance.HitRateAbs, "validate: absolute pool hit-rate tolerance")

	fs.BoolVar(&c.jsonOut, "json", false, "emit JSON on stdout")
	fs.Parse(args) // ExitOnError: a bad flag never returns
	return c
}

func run(c cliConfig) error {
	// The simulator fills a missing backend count in with 1 and reads a
	// negative depth or limit as "none"; an operator who typed one gets
	// told, not a table row that was never simulated.
	switch {
	case c.backends < 1:
		return fmt.Errorf("-backends %d: a fleet has at least one backend", c.backends)
	case c.maxSessions < 0:
		return fmt.Errorf("-max-sessions %d: a session limit is positive, or 0 for unlimited", c.maxSessions)
	case c.pool < 0:
		return fmt.Errorf("-pool %d: a pool depth is positive, or 0 for no pool", c.pool)
	}
	shape, err := load.ParseShape(c.shape)
	if err != nil {
		return fmt.Errorf("-shape: %w", err)
	}
	sc := load.Scenario{
		Rate: c.rate, Process: c.process, BurstSize: c.burst,
		DurationSec: c.duration.Seconds(), Seed: c.seed,
		MaxInflight: c.maxInflight, Shape: shape,
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
		CPUs:             cpus, PoolDepth: c.pool, WarmStart: !c.coldStart,
	}
	switch {
	case c.validate:
		return runValidate(c, sc, fl)
	case c.capacity:
		return runCapacity(c, sc, fl)
	case c.simulate:
		return runSimulate(c, sc, fl)
	default:
		return fmt.Errorf("pick a mode: -simulate, -capacity or -validate")
	}
}

// calibrate resolves the calibration for the scenario's shape: the
// -calib snapshot file when given, the analytic model otherwise.
func calibrate(c cliConfig, ref load.Shape) (*capmodel.Calibration, error) {
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
	return capmodel.Analytic(ref.Rows, ref.Cols, ref.Width)
}

func runSimulate(c cliConfig, sc load.Scenario, fl capmodel.Fleet) error {
	cal, err := calibrate(c, sc.Shape)
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

func runCapacity(c cliConfig, sc load.Scenario, fl capmodel.Fleet) error {
	cal, err := calibrate(c, sc.Shape)
	if err != nil {
		return err
	}
	backends, err := parseInts("-backends-sweep", c.backendsSweep, 1)
	if err != nil {
		return err
	}
	pools, err := parseInts("-pool-sweep", c.poolSweep, 0)
	if err != nil {
		return err
	}
	sessions, err := parseInts("-sessions-sweep", c.sessionsSweep, 0)
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
	ref := sc.Shape
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

// parseInts reads a sweep flag's comma-separated list; every entry is
// an integer of at least atLeast.
func parseInts(name, list string, atLeast int) ([]int, error) {
	var out []int
	for _, p := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("%s %q: entry %q is not an integer", name, list, p)
		}
		if n < atLeast {
			return nil, fmt.Errorf("%s %q: entry %d is below %d", name, list, n, atLeast)
		}
		out = append(out, n)
	}
	return out, nil
}
