// Package obs is the repository's dependency-free observability layer:
// atomic metrics (counters, gauges, fixed-bucket histograms) with
// Prometheus text exposition, and span-based protocol-phase traces
// with monotonic timing.
//
// The package exists because the paper's headline claims are all
// quantitative — per-clock-cycle core utilization ("at most 2 idle
// cores", §4), 57× throughput per core (Table 2), and the closing §5.1
// caveat that the host link "may become the bottleneck" — and a
// long-running server needs those numbers continuously queryable, not
// reconstructed post-hoc from log lines.
//
// Every type is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram, *Tracer, *SessionTrace or *Span are no-ops, so
// instrumented packages thread a possibly-nil registry through hot
// paths without guards.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" metric dimension (e.g. core="3").
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger (high-water marks like
// peak memory occupancy).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts per upper bound plus an implicit +Inf bucket, a sum,
// and a total count.
type Histogram struct {
	bounds  []float64 // ascending upper bounds
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// DurationBuckets is the default bound set for protocol-phase
// latencies, spanning 100µs to 30s.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Find the first bound >= v; samples above every bound land only
	// in the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count is the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum is the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation within the winning bucket, the
// same estimate Prometheus's histogram_quantile computes server-side.
// Samples beyond the last finite bound live in the implicit +Inf
// bucket, so when the quantile lands there the estimate clamps to the
// highest finite bound. Returns 0 on an empty (or nil) histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	uppers := make([]float64, 0, len(h.bounds)+1)
	cum := make([]uint64, 0, len(h.bounds)+1)
	var run uint64
	for i, b := range h.bounds {
		run += h.buckets[i].Load()
		uppers = append(uppers, b)
		cum = append(cum, run)
	}
	uppers = append(uppers, math.Inf(1))
	cum = append(cum, h.Count())
	return BucketQuantile(uppers, cum, q)
}

// BucketQuantile estimates the q-th quantile from cumulative histogram
// buckets: uppers are ascending bucket upper bounds (the last may be
// +Inf), cum the cumulative sample counts per bound (Prometheus
// `le`-style, so cum[len-1] is the total). It is the shared math behind
// Histogram.Quantile and consumers of a scraped text exposition,
// interpolating linearly inside the winning bucket and clamping a +Inf
// winner to the highest finite bound.
func BucketQuantile(uppers []float64, cum []uint64, q float64) float64 {
	v, _ := BucketQuantileOK(uppers, cum, q)
	return v
}

// BucketQuantileOK is BucketQuantile with an honesty bit: ok is false
// when the buckets support no estimate at all — an empty histogram, or
// a quantile that lands in the +Inf bucket, where the returned clamp
// (the highest finite bound, 0 if there is none) is a floor rather
// than an estimate. Renderers that would otherwise print the clamp as
// if it were measured (maxtop's GC pause p99 once showed a fabricated
// finite pause this way) should show a dash when ok is false.
func BucketQuantileOK(uppers []float64, cum []uint64, q float64) (v float64, ok bool) {
	if len(uppers) == 0 || len(uppers) != len(cum) {
		return 0, false
	}
	total := cum[len(cum)-1]
	if total == 0 {
		return 0, false
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(total)
	for i, ub := range uppers {
		if float64(cum[i]) < rank {
			continue
		}
		lower, prev := 0.0, uint64(0)
		if i > 0 {
			lower, prev = uppers[i-1], cum[i-1]
		}
		if math.IsInf(ub, 1) {
			// The quantile lives above every finite bound; the clamp is
			// the best floor the buckets support, but it is not an
			// estimate — report it as such.
			return lower, false
		}
		inBucket := cum[i] - prev
		if inBucket == 0 {
			return ub, true
		}
		return lower + (ub-lower)*(rank-float64(prev))/float64(inBucket), true
	}
	return uppers[len(uppers)-1], true
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labelled instance within a family.
type child struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups every labelled instance of one metric name.
type family struct {
	name     string
	help     string
	kind     metricKind
	children map[string]*child
	order    []string // insertion order of label signatures
}

// Registry holds named metric families. The zero value is not usable;
// call NewRegistry. A nil *Registry is a universal no-op.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for _, l := range labels {
		sb.WriteString(l.Key)
		sb.WriteByte('\x00')
		sb.WriteString(l.Value)
		sb.WriteByte('\x00')
	}
	return sb.String()
}

// getOrCreate returns the family's child for the label set, creating
// family and child as needed. It panics if the name is reused with a
// different metric kind — that is a programming error, deterministic
// on first use.
func (r *Registry) getOrCreate(name, help string, kind metricKind, labels []Label, mk func() *child) *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q redeclared as %s (was %s)", name, kind, f.kind))
	}
	sig := labelSignature(labels)
	ch, ok := f.children[sig]
	if !ok {
		ch = mk()
		ch.labels = append([]Label(nil), labels...)
		f.children[sig] = ch
		f.order = append(f.order, sig)
	}
	return ch
}

// Counter returns (creating on first use) the counter with the given
// name and label set.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, kindCounter, labels, func() *child { return &child{c: &Counter{}} }).c
}

// Gauge returns (creating on first use) the gauge with the given name
// and label set.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, help, kindGauge, labels, func() *child { return &child{g: &Gauge{}} }).g
}

// PhaseTimeouts returns the counter of wire operations that exceeded
// their protocol-phase deadline, labelled by phase. It lives here so
// the protocol layer and the daemons register the family under one
// name and help string; like every metric, it is nil-safe.
func (r *Registry) PhaseTimeouts(phase string) *Counter {
	return r.Counter("phase_timeouts_total",
		"wire operations that exceeded their protocol-phase deadline",
		L("phase", phase))
}

// Histogram returns (creating on first use) the histogram with the
// given name, label set and bucket upper bounds. Bounds are fixed by
// the first call; nil bounds default to DurationBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if bounds == nil {
		bounds = DurationBuckets
	}
	return r.getOrCreate(name, help, kindHistogram, labels, func() *child {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &child{h: &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b))}}
	}).h
}

func formatLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", l.Key, l.Value)
	}
	sb.WriteByte('}')
	return sb.String()
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		for _, sig := range f.order {
			ch := f.children[sig]
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, formatLabels(ch.labels), ch.c.Value())
			case kindGauge:
				fmt.Fprintf(&sb, "%s%s %d\n", f.name, formatLabels(ch.labels), ch.g.Value())
			case kindHistogram:
				h := ch.h
				var cum uint64
				for i, bound := range h.bounds {
					cum += h.buckets[i].Load()
					fmt.Fprintf(&sb, "%s_bucket%s %d\n",
						f.name, formatLabels(ch.labels, L("le", formatFloat(bound))), cum)
				}
				fmt.Fprintf(&sb, "%s_bucket%s %d\n",
					f.name, formatLabels(ch.labels, L("le", "+Inf")), h.Count())
				fmt.Fprintf(&sb, "%s_sum%s %s\n", f.name, formatLabels(ch.labels), formatFloat(h.Sum()))
				fmt.Fprintf(&sb, "%s_count%s %d\n", f.name, formatLabels(ch.labels), h.Count())
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// NearestRank picks the p-th percentile from ascending samples by the
// nearest-rank rule the load reports use: rank = ceil(p·n/100) clamped
// into [1, n]; 0 on empty input.
func NearestRank(sorted []float64, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (p*len(sorted) + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}
