package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const manifestPath = "../../BENCHMARK.json"

// TestWorkloadsEmitTheManifest runs every workload end to end at the
// smallest op count, and one traced run with the layer replay at its
// minimum, and holds what they emit against BENCHMARK.json. Every op is
// checked against plaintext A·y by the harness itself; a wrong value
// makes the result incorrect.
func TestWorkloadsEmitTheManifest(t *testing.T) {
	if testing.Short() {
		t.Skip("opens real sessions (seconds of base OT each)")
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		w     workload
		trace bool
	}
	runs := []run{{workloads[0], true}}
	for _, w := range workloads {
		runs = append(runs, run{w, false})
	}
	for _, r := range runs {
		name, decls := r.w.name+"/end_to_end", man.EndToEnd
		if r.trace {
			name, decls = r.w.name+"/per_layer", man.PerLayer
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ops := 3
			if r.w.cold {
				ops = 1
			}
			var log bytes.Buffer
			spans := filepath.Join(t.TempDir(), "spans.json")
			res, err := runWorkload(options{man: man, w: r.w, seed: 7, lim: limits{ops: ops},
				setups: 1, trace: r.trace, spans: spans, minimalReplay: true}, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("incorrect run: %+v\n%s", res, log.String())
			}
			if want := wholeBatches(r.w, ops); res.Attempted != want {
				t.Errorf("attempted %d ops, want %d", res.Attempted, want)
			}
			if len(res.Metrics) != len(decls) {
				t.Errorf("%d metrics emitted, manifest declares %d", len(res.Metrics), len(decls))
			}
			for _, d := range decls {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s: got %+v (present %v), want a finite value in %s", d.Name, v, ok, d.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("result does not encode: %v", err)
			}
			if !r.trace {
				return
			}
			if got := res.Metrics["precompute.hit_frac"].Value; got != 1 {
				t.Errorf("precompute.hit_frac = %v, want 1", got)
			}
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{`"connect"`, `"dial"`, `"do"`, `"close"`, `"new_session"`, `"serve"`} {
				if !strings.Contains(string(data), name) {
					t.Errorf("span file has no %s span", name)
				}
			}
		})
	}
}

// wholeBatches is the op count a fixed-count run really clocks: pooled
// workloads round up to whole prefill batches.
func wholeBatches(w workload, ops int) int {
	if !w.pooled {
		return ops
	}
	return (ops + w.batch - 1) / w.batch * w.batch
}

func TestGenerateIsSeededAndFitsTheAccumulator(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w.shape, 42)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, _ := generate(w.shape, 42)
		c, _ := generate(w.shape, 43)
		if !equal(a.A[0], b.A[0]) || !equal(a.want[3], b.want[3]) {
			t.Errorf("%s: same seed, different inputs", w.name)
		}
		if equal(a.A[0], c.A[0]) {
			t.Errorf("%s: different seeds, same matrix", w.name)
		}
		opMax := int64(1)<<(w.width-1) - 1
		for _, row := range a.A {
			for _, v := range row {
				if v > opMax || v < -opMax-1 {
					t.Fatalf("%s: operand %d does not fit %d bits", w.name, v, w.width)
				}
			}
		}
	}
}

func TestEmitRefusesDrift(t *testing.T) {
	decls := []metricDecl{{Name: "a", Unit: "ms"}, {Name: "b", Unit: "s"}}
	if _, err := emit(decls, map[string]float64{"a": 1}); err == nil || !strings.Contains(err.Error(), "not measured: b") {
		t.Errorf("missing metric accepted: %v", err)
	}
	if _, err := emit(decls, map[string]float64{"a": 1, "b": 2, "c": 3}); err == nil || !strings.Contains(err.Error(), "not declared: c") {
		t.Errorf("undeclared metric accepted: %v", err)
	}
	got, err := emit(decls, map[string]float64{"a": 1, "b": 2})
	if err != nil || got["b"] != (metricValue{2, "s"}) {
		t.Errorf("emit = %v, %v", got, err)
	}
}

func TestQuantileAndSpread(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	if got := median(v); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(v, 0.25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	// The reference values are Python's statistics.quantiles(v, n=4).
	if got := spread(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (4.5-1.5)/3", got)
	}
	if got := spread([]float64{9, 11, 10, 14, 8, 7, 20, 3}); math.Abs(got-6/9.5) > 1e-12 {
		t.Errorf("spread = %v, want (13.25-7.25)/9.5", got)
	}
	if got := spread([]float64{9, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("two-value spread = %v, want the full range over the median", got)
	}
}
