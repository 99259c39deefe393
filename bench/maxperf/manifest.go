package main

// BENCHMARK.json is the contract: maxperf emits exactly the metrics it
// declares, with the units it declares, and refuses to emit anything
// else.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	declared := make(map[string]bool)
	for _, w := range m.Workloads {
		declared[w.Name] = true
	}
	for _, w := range workloads {
		if !declared[w.name] {
			return nil, fmt.Errorf("%s does not declare workload %q", path, w.name)
		}
		delete(declared, w.name)
	}
	for name := range declared {
		return nil, fmt.Errorf("%s declares workload %q, which maxperf does not have", path, name)
	}
	return &m, nil
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit pairs measured values with their declarations. It fails when a
// value has no declaration or a declaration has no value, so the
// benchmark and its manifest cannot drift apart.
func emit(decls []metricDecl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	var problems []string
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok {
			problems = append(problems, "declared but not measured: "+d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			problems = append(problems, "measured but not declared: "+name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return nil, fmt.Errorf("metrics do not match BENCHMARK.json:\n  %s", strings.Join(problems, "\n  "))
	}
	return out, nil
}
