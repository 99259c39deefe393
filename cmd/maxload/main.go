// Command maxload is the open-loop traffic generator of the capacity
// toolchain: it offers a seeded arrival schedule (Poisson, uniform or
// burst) of real protocol sessions to a live maxd or maxgw target and
// reports what came back — offered vs. achieved rate, latency
// percentiles, BUSY sheds, hard failures, and (when the target's
// metrics surface is reachable) the precompute pool hit-rate.
//
// Usage:
//
//	maxload -target 127.0.0.1:7700 -rate 20 -duration 30s
//	maxload -target 127.0.0.1:7800 -rate 50 -process burst -burst 8 \
//	        -shape 4x4/b=8 -metrics http://127.0.0.1:7701
//
// Open-loop means the arrival clock never slows for a struggling
// fleet: arrivals the -max-inflight cap cannot absorb are counted as
// skipped, never blocked on, so overload surfaces as sheds and rising
// percentiles instead of a silently throttled offered rate.
//
// -shape is one ROWSxCOLS/b=WIDTH entry: the shape of the model the
// target serves (the garbler owns the model, so a session of any other
// shape can only fail). There is no OT segment; every session hints and
// gets per-round OT, the one mode a backend serves. The same scenario
// fed to `maxcap -simulate` replays the identical arrival schedule
// through the capacity simulator — same seed, same instants — so
// measurement and prediction are directly comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"maxelerator/internal/load"
	"maxelerator/internal/protocol"
)

func main() {
	r, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxload:", err)
		os.Exit(1)
	}
	if r.Succeeded == 0 {
		os.Exit(1)
	}
}

// run is the whole command behind main: parse args, offer the load,
// print the report on out.
func run(args []string, out io.Writer) (*load.Report, error) {
	fs := flag.NewFlagSet("maxload", flag.ExitOnError)
	var (
		target      = fs.String("target", "127.0.0.1:7700", "maxd or maxgw TCP address")
		rate        = fs.Float64("rate", 10, "offered arrival rate, sessions/second")
		process     = fs.String("process", "poisson", "arrival process: poisson, uniform or burst")
		burst       = fs.Int("burst", 8, "arrivals per clump under -process burst")
		duration    = fs.Duration("duration", 30*time.Second, "arrival window")
		seed        = fs.Int64("seed", 1, "schedule seed (same seed = same arrivals)")
		maxInflight = fs.Int("max-inflight", 64, "client-side concurrent session cap; 0 = unlimited")
		shapeFlag   = fs.String("shape", "4x4/b=8", "shape of the model the target serves, ROWSxCOLS/b=WIDTH")
		metricsURL  = fs.String("metrics", "", "target observability base URL for pool hit-rate (e.g. http://127.0.0.1:7701)")
		handshakeTO = fs.Duration("handshake-timeout", 10*time.Second, "per-operation handshake/OT deadline")
		ioTO        = fs.Duration("io-timeout", 10*time.Second, "per-operation steady-state I/O deadline")
		jsonOut     = fs.Bool("json", false, "emit the full report as JSON on stdout")
		verbose     = fs.Bool("v", false, "log per-session failures")
	)
	fs.Parse(args) // ExitOnError: a bad flag never returns

	shape, err := load.ParseShape(*shapeFlag)
	if err != nil {
		return nil, fmt.Errorf("-shape: %w", err)
	}
	cfg := load.Config{
		Target: *target,
		Scenario: load.Scenario{
			Rate: *rate, Process: *process, BurstSize: *burst,
			DurationSec: duration.Seconds(), Seed: *seed,
			MaxInflight: *maxInflight, Shape: shape,
		},
		Timeouts:   protocol.Timeouts{Handshake: *handshakeTO, IO: *ioTO},
		MetricsURL: *metricsURL,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	r, err := load.Run(cfg)
	if err != nil {
		return nil, err
	}
	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return r, enc.Encode(r)
	}
	printHuman(out, r)
	return r, nil
}

func printHuman(out io.Writer, r *load.Report) {
	fmt.Fprintf(out, "maxload: %s %s %.1f/s for %.0fs (seed %d)\n",
		r.Target, r.Scenario.Process, r.Scenario.Rate, r.Scenario.DurationSec, r.Scenario.Seed)
	fmt.Fprintf(out, "  offered   %6d  (%.1f/s)\n", r.Offered, r.OfferedRate)
	fmt.Fprintf(out, "  started   %6d  skipped %d (client cap)\n", r.Started, r.Skipped)
	fmt.Fprintf(out, "  succeeded %6d  (%.1f/s achieved)\n", r.Succeeded, r.AchievedRate)
	fmt.Fprintf(out, "  shed      %6d  failed %d", r.Shed, r.Failed)
	if r.FirstError != "" {
		fmt.Fprintf(out, " (first: %s)", r.FirstError)
	}
	fmt.Fprintln(out)
	l := r.Latency
	fmt.Fprintf(out, "  latency   p50 %.1fms  p90 %.1fms  p95 %.1fms  p99 %.1fms  mean %.1fms  max %.1fms (n=%d)\n",
		l.P50Ms, l.P90Ms, l.P95Ms, l.P99Ms, l.MeanMs, l.MaxMs, l.Samples)
	if r.Pool != nil {
		fmt.Fprintf(out, "  pool      %d hits / %d misses (%.0f%% hit rate)\n",
			r.Pool.Hits, r.Pool.Misses, r.Pool.HitRate*100)
	}
}
