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
//	        -shapes "4x4/b=8*3,2x8/b=8*1" -metrics http://127.0.0.1:7701
//
// Open-loop means the arrival clock never slows for a struggling
// fleet: arrivals the -max-inflight cap cannot absorb are counted as
// skipped, never blocked on, so overload surfaces as sheds and rising
// percentiles instead of a silently throttled offered rate.
//
// The -shapes mix is a comma-separated list of ROWSxCOLS/b=WIDTH
// entries with an optional *WEIGHT suffix (default weight 1); there is
// no OT segment, every session hints and gets per-round OT, the one
// mode a backend serves. The same scenario fed to `maxcap -simulate`
// replays the identical arrival schedule through the capacity simulator
// — same seed, same instants, same shape draws — so measurement and
// prediction are directly comparable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"maxelerator/internal/load"
	"maxelerator/internal/protocol"
)

func main() {
	var (
		target      = flag.String("target", "127.0.0.1:7700", "maxd or maxgw TCP address")
		rate        = flag.Float64("rate", 10, "offered arrival rate, sessions/second")
		process     = flag.String("process", "poisson", "arrival process: poisson, uniform or burst")
		burst       = flag.Int("burst", 8, "arrivals per clump under -process burst")
		duration    = flag.Duration("duration", 30*time.Second, "arrival window")
		seed        = flag.Int64("seed", 1, "schedule seed (same seed = same arrivals)")
		maxInflight = flag.Int("max-inflight", 64, "client-side concurrent session cap; 0 = unlimited")
		shapes      = flag.String("shapes", "4x4/b=8", "weighted shape mix, e.g. \"4x4/b=8*3,2x8/b=8*1\"")
		metricsURL  = flag.String("metrics", "", "target observability base URL for pool hit-rate (e.g. http://127.0.0.1:7701)")
		handshakeTO = flag.Duration("handshake-timeout", 10*time.Second, "per-operation handshake/OT deadline")
		ioTO        = flag.Duration("io-timeout", 10*time.Second, "per-operation steady-state I/O deadline")
		jsonOut     = flag.Bool("json", false, "emit the full report as JSON on stdout")
		verbose     = flag.Bool("v", false, "log per-session failures")
	)
	flag.Parse()

	mix, err := load.ParseShapes(*shapes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxload:", err)
		os.Exit(2)
	}
	sc := load.Scenario{
		Rate: *rate, Process: *process, BurstSize: *burst,
		DurationSec: duration.Seconds(), Seed: *seed,
		MaxInflight: *maxInflight, Shapes: mix,
	}
	cfg := load.Config{
		Target:     *target,
		Scenario:   sc,
		Timeouts:   protocol.Timeouts{Handshake: *handshakeTO, IO: *ioTO},
		MetricsURL: *metricsURL,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	r, err := load.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "maxload:", err)
		os.Exit(1)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(r)
	} else {
		printHuman(r)
	}
	if r.Succeeded == 0 {
		os.Exit(1)
	}
}

func printHuman(r *load.Report) {
	fmt.Printf("maxload: %s %s %.1f/s for %.0fs (seed %d)\n",
		r.Target, r.Scenario.Process, r.Scenario.Rate, r.Scenario.DurationSec, r.Scenario.Seed)
	fmt.Printf("  offered   %6d  (%.1f/s)\n", r.Offered, r.OfferedRate)
	fmt.Printf("  started   %6d  skipped %d (client cap)\n", r.Started, r.Skipped)
	fmt.Printf("  succeeded %6d  (%.1f/s achieved)\n", r.Succeeded, r.AchievedRate)
	fmt.Printf("  shed      %6d  failed %d\n", r.Shed, r.Failed)
	l := r.Latency
	fmt.Printf("  latency   p50 %.1fms  p90 %.1fms  p95 %.1fms  p99 %.1fms  mean %.1fms  max %.1fms (n=%d)\n",
		l.P50Ms, l.P90Ms, l.P95Ms, l.P99Ms, l.MeanMs, l.MaxMs, l.Samples)
	if r.Pool != nil {
		fmt.Printf("  pool      %d hits / %d misses (%.0f%% hit rate)\n",
			r.Pool.Hits, r.Pool.Misses, r.Pool.HitRate*100)
	}
}
