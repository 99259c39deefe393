// Command maxperf is the repository's reference benchmark: cold and
// warm private-MAC sessions measured end to end over loopback TCP, and
// decomposed layer by layer in a separate traced run. BENCHMARK.json at
// the repository root declares every metric it prints; bench/README.md
// explains them.
//
//	go run ./bench/maxperf -workload warm_inline -seed 1 -seconds 15 -trace 0
//	go run ./bench/maxperf -all -seed 1 -json
//	go run ./bench/maxperf -aa 2
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart is as close to exec as Go code gets; setup_s counts
// from here.
var processStart = time.Now()

// setups is how many times an untraced run sets the system up; setup_s
// is the median.
const setups = 3

// result is the last line a single-workload run prints: the contract
// the benchmark driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options fix one single-workload run.
type options struct {
	man    *manifest
	w      workload
	seed   int64
	lim    limits
	setups int
	trace  bool
	spans  string // where a traced run writes its spans
	// minimalReplay cuts the layer replay to its fewest repeats.
	minimalReplay bool
}

type environment struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Commit     string `json:"git_commit"`
	Transport  string `json:"transport"`
}

func stampEnvironment() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), Commit: commit, Transport: "loopback TCP, closed loop, 1 client connection",
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("maxperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "run this one workload and print its result as the last line")
		seed    = fs.Int64("seed", 1, "seed of the generated matrix and client vectors")
		seconds = fs.Float64("seconds", 0, "length of the clocked loop (default: run_seconds of the manifest)")
		ops     = fs.Int("ops", 0, "clock exactly this many ops instead of -seconds")
		trace   = fs.Int("trace", 0, "1: traced run that prints the per-layer metrics; 0: untraced, end-to-end metrics")
		spans   = fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>.json)")
		all     = fs.Bool("all", false, "run every workload, untraced then traced, one process each")
		aa      = fs.Int("aa", 0, "A/A: run the untraced set this many times and hold each metric's spread against its bound")
		asJSON  = fs.Bool("json", false, "with -all: print the merged report as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		fmt.Fprintf(stderr, "maxperf: GOMAXPROCS=%d exceeds the %d CPUs of this machine\n", runtime.GOMAXPROCS(0), runtime.NumCPU())
		return 2
	}
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "maxperf: %v\n", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(man.RunSeconds)
	}

	switch {
	case *name != "":
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(stderr, "maxperf: %v\n", err)
			return 2
		}
		o := options{man: man, w: w, seed: *seed, lim: limits{ops: *ops, seconds: *seconds},
			setups: setups, trace: *trace != 0, spans: *spans}
		res, err := runWorkload(o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "maxperf: %s: %v\n", w.name, err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "maxperf: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	case *all || *aa > 0:
		child := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds)}
		if *ops > 0 {
			child = append(child, "-ops", fmt.Sprint(*ops))
		}
		if *aa > 0 {
			return runAA(man, *aa, child, stdout, stderr)
		}
		return runAll(man, child, *asJSON, stdout, stderr)
	}
	fs.Usage()
	return 2
}

// runWorkload is one process's work: set up, clock the loop, tear down,
// and for a traced run replay the layers.
func runWorkload(o options, log io.Writer) (*result, error) {
	w := o.w
	if w.workers > runtime.NumCPU() {
		w.workers = runtime.NumCPU()
	}
	in, err := generate(w.shape, o.seed)
	if err != nil {
		return nil, err
	}
	env := stampEnvironment()
	fmt.Fprintf(log, "maxperf: %s seed=%d trace=%v | %s %d×%d b=%d batched=%v workers=%d | %s, nproc=%d GOMAXPROCS=%d, %s, commit %s, %s\n",
		w.name, o.seed, o.trace, map[bool]string{true: "cold", false: "warm"}[w.cold], w.rows, w.cols, w.width, w.batched, w.workers,
		env.Go, env.NumCPU, env.GOMAXPROCS, env.CPU, env.Commit, env.Transport)

	var tr *tracer
	var sampler *heapSampler
	lim, setups := o.lim, o.setups
	if o.trace {
		// A traced run spends half its time in the live loop and the
		// rest replaying layers, and sets up once: setup_s is an
		// end-to-end metric and comes from the untraced run.
		tr, sampler = newTracer(), startHeapSampler()
		defer sampler.peakMB() // stops it on the error paths too
		lim.seconds /= 2
		setups = 1
	}
	load := loadavg1m()

	var r *rig
	var setupS []float64
	for i := 0; i < setups; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		} else if err := r.tearDown(); err != nil {
			return nil, fmt.Errorf("tear-down after set-up %d: %w", i, err)
		}
		if r, err = setUp(w, in, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}

	p := r.measure(lim)
	downErr := r.tearDown()
	if p.attempted == 0 {
		return nil, fmt.Errorf("no op was attempted: %v", p.firstErr)
	}
	fmt.Fprintf(log, "maxperf: %s attempted=%d succeeded=%d wrong=%d refused=%d errors=%d pool_misses=%d\n",
		w.name, p.attempted, p.ok()-p.missed, p.wrong, p.refused, p.errored, p.missed)
	for _, err := range []error{p.firstErr, downErr} {
		if err != nil {
			fmt.Fprintf(log, "maxperf: %s FAILED: %v\n", w.name, err)
		}
	}
	res := &result{
		Correct:   p.failed() == 0 && p.firstErr == nil && downErr == nil,
		Attempted: p.attempted,
		Failed:    p.failed(),
	}

	if !o.trace {
		vals := p.endToEnd(w.shape)
		vals["setup_s"] = median(setupS)
		if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
			return nil, err
		}
		if res.Metrics, err = emit(o.man.EndToEnd, vals); err != nil {
			return nil, err
		}
		report(log, w.name, o.man.EndToEnd, res.Metrics, len(p.samples))
		return res, nil
	}

	vals := map[string]float64{"host.loadavg_1m": load}
	rp := &replay{sh: w.shape, A: in.A, y: in.ys[0], want: in.want[0], minimal: o.minimalReplay, out: vals}
	if err := rp.run(); err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	// After the replay: on a pooled workload the live loop's hit
	// fraction is the one reported, not the replay engine's.
	p.live(w, tr, vals)
	vals["protocol.unattributed_ms"] = unattributed(w, vals)
	vals["runtime.heap_inuse_peak_mb"] = sampler.peakMB()
	if res.Metrics, err = emit(o.man.PerLayer, vals); err != nil {
		return nil, err
	}
	report(log, w.name, o.man.PerLayer, res.Metrics, len(p.traced))
	path := o.spans
	if path == "" {
		path = filepath.Join(".bench_build", "spans", w.name+".json")
	}
	if err := tr.write(path, w.name); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "maxperf: %s spans written to %s\n", w.name, path)
	return res, nil
}

// report prints the metrics of one run for a person, in manifest
// order, with the sample count beside the percentiles when it is known.
func report(log io.Writer, name string, decls []metricDecl, vals map[string]metricValue, samples int) {
	for _, d := range decls {
		v := vals[d.Name]
		fmt.Fprintf(log, "  %-16s %-32s %14.4f %-6s", name, d.Name, v.Value, v.Unit)
		if samples > 0 && (strings.HasSuffix(d.Name, "_p50_ms") || strings.HasSuffix(d.Name, "_p90_ms")) {
			fmt.Fprintf(log, " (n=%d)", samples)
		}
		fmt.Fprintln(log)
	}
}

// child runs one workload in a process of its own, so peak memory and
// collector state are that workload's alone, and parses its last line.
func child(w string, trace int, common []string, stderr io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-workload", w, "-trace", fmt.Sprint(trace)}, common...)
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w, err)
		}
		return nil, fmt.Errorf("%s: unreadable result: %w", w, jerr)
	}
	return &res, nil
}

// runAll runs every workload untraced and traced and merges the results.
func runAll(man *manifest, common []string, asJSON bool, stdout, stderr io.Writer) int {
	type entry struct {
		Workload string  `json:"workload"`
		Why      string  `json:"why"`
		EndToEnd *result `json:"end_to_end"`
		PerLayer *result `json:"per_layer"`
	}
	merged := struct {
		Env       environment `json:"env"`
		Args      []string    `json:"args"`
		Workloads []entry     `json:"workloads"`
	}{Env: stampEnvironment(), Args: common}
	code := 0
	for _, w := range man.Workloads {
		e := entry{Workload: w.Name, Why: w.Why}
		for trace, dst := range []**result{&e.EndToEnd, &e.PerLayer} {
			res, err := child(w.Name, trace, common, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "maxperf: %v\n", err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			*dst = res
		}
		merged.Workloads = append(merged.Workloads, e)
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(merged); err != nil {
			fmt.Fprintf(stderr, "maxperf: %v\n", err)
			return 1
		}
		return code
	}
	for _, e := range merged.Workloads {
		fmt.Fprintf(stdout, "%s: attempted %d, failed %d\n", e.Workload, e.EndToEnd.Attempted, e.EndToEnd.Failed)
		report(stdout, e.Workload, man.EndToEnd, e.EndToEnd.Metrics, 0)
		report(stdout, e.Workload, man.PerLayer, e.PerLayer.Metrics, 0)
	}
	return code
}

// runAA runs the untraced set n times on this one build and holds each
// end-to-end metric's spread against the bound the manifest gives it.
// The workload order flips between repetitions, so a noisy minute does
// not land on the same workload twice.
func runAA(man *manifest, n int, common []string, stdout, stderr io.Writer) int {
	if n < 2 {
		fmt.Fprintln(stderr, "maxperf: -aa needs at least 2 repetitions")
		return 2
	}
	names := make([]string, len(man.Workloads))
	for i, w := range man.Workloads {
		names[i] = w.Name
	}
	values := make(map[string]map[string][]float64) // workload → metric → one value per repetition
	code := 0
	for rep := 0; rep < n; rep++ {
		order := append([]string(nil), names...)
		if rep%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, w := range order {
			res, err := child(w, 0, common, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "maxperf: %v\n", err)
				return 1
			}
			if !res.Correct {
				fmt.Fprintf(stdout, "%s: repetition %d was not correct (%d of %d ops failed)\n", w, rep, res.Failed, res.Attempted)
				code = 1
			}
			if values[w] == nil {
				values[w] = make(map[string][]float64)
			}
			for m, v := range res.Metrics {
				values[w][m] = append(values[w][m], v.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "%-16s %-20s %12s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range names {
		for _, d := range man.EndToEnd {
			vals := values[w][d.Name]
			sp := spread(vals)
			verdict := ""
			// setup_s is held to its median only, as the driver does.
			if sp > d.Bound && d.Name != "setup_s" {
				verdict, code = "  BREACH", 1
			}
			fmt.Fprintf(stdout, "%-16s %-20s %12.4f %8.2f%% %6.0f%%%s\n", w, d.Name, median(vals), 100*sp, 100*d.Bound, verdict)
		}
	}
	return code
}
