// Package capmodel is the fleet capacity model: a discrete-event
// simulator of a maxd fleet — admission, OT setup, request service,
// precompute warm pools with background refill — whose per-stage
// service times are drawn from a Calibration built out of *measured*
// execution times rather than guesses. Two calibration sources, in
// decreasing order of fidelity:
//
//  1. FromSnapshot: live obs histogram snapshots (/histz) from a real
//     daemon under the very traffic being modelled — empirical
//     inverse-CDF sampling, no distributional assumption.
//  2. Analytic: the paper's cost model (internal/sched cycle counts at
//     the device clock, internal/fpga PCIe drain) — a deterministic
//     floor for shapes nothing has measured yet.
//
// The validation loop (cmd/maxcap -validate, this package's tests)
// closes the circle: drive a real backend with internal/load, calibrate
// from the run's own histograms, replay the identical arrival schedule
// through the simulator, and assert predicted latency and pool
// hit-rate land within a documented tolerance of the measurement.
package capmodel

import (
	"fmt"
	"math/rand"
	"sort"

	"maxelerator/internal/fpga"
	"maxelerator/internal/obs"
	"maxelerator/internal/sched"
)

// Dist is a service-time distribution in seconds.
type Dist interface {
	// Sample draws one service time using the provided source (the
	// simulator's single seeded stream — determinism flows from it).
	Sample(rng *rand.Rand) float64
	// Mean is the expectation, used for capacity arithmetic and
	// reporting.
	Mean() float64
}

// Const is a degenerate point distribution.
type Const float64

// Sample returns the constant.
func (c Const) Sample(*rand.Rand) float64 { return float64(c) }

// Mean returns the constant.
func (c Const) Mean() float64 { return float64(c) }

// Empirical samples by inverse CDF over measured histogram buckets:
// pick a bucket proportionally to its count, then place the draw
// uniformly inside the bucket's bounds. The +Inf bucket clamps to the
// last finite bound — the histogram carries no information beyond it.
//
// Moment matching: the obs duration buckets widen geometrically, so
// uniform within-bucket placement systematically overestimates mass
// that actually sits near the lower edge of a coarse tail bucket. The
// histogram's exact Sum is available, so every draw is rescaled by
// Mean/impliedMean (the uniform-placement expectation) and clamped to
// the bucket support — first moment exact, bucket shape preserved.
type Empirical struct {
	bounds []float64 // finite upper bounds, ascending
	cum    []uint64  // cumulative counts per bucket incl. +Inf tail
	total  uint64
	mean   float64
	scale  float64
	top    float64 // last finite bound: support ceiling after scaling
}

// NewEmpirical builds an empirical distribution from a histogram
// snapshot. Returns an error when the histogram is empty — an empty
// stage must fall back to another source, not silently sample zeros.
func NewEmpirical(h obs.HistogramSnapshot) (*Empirical, error) {
	if h.Count == 0 {
		return nil, fmt.Errorf("capmodel: histogram %s is empty", h.Name)
	}
	if len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
		return nil, fmt.Errorf("capmodel: histogram %s has malformed buckets", h.Name)
	}
	e := &Empirical{bounds: h.Bounds, cum: h.CumulativeCounts(), total: h.Count,
		mean: h.Mean(), scale: 1, top: h.Bounds[len(h.Bounds)-1]}
	implied, prev := 0.0, 0.0
	for i, bound := range h.Bounds {
		implied += float64(h.Counts[i]) * (prev + bound) / 2
		prev = bound
	}
	implied += float64(h.Counts[len(h.Bounds)]) * e.top
	implied /= float64(h.Count)
	if implied > 0 && e.mean > 0 {
		e.scale = e.mean / implied
	}
	return e, nil
}

// Sample draws by inverse CDF with uniform within-bucket placement,
// rescaled onto the exact measured mean.
func (e *Empirical) Sample(rng *rand.Rand) float64 {
	u := uint64(rng.Int63n(int64(e.total))) + 1 // 1..total
	i := sort.Search(len(e.cum), func(i int) bool { return e.cum[i] >= u })
	var raw float64
	if i >= len(e.bounds) {
		// +Inf bucket: clamp to the last finite bound.
		raw = e.top
	} else {
		lo := 0.0
		if i > 0 {
			lo = e.bounds[i-1]
		}
		raw = lo + rng.Float64()*(e.bounds[i]-lo)
	}
	v := raw * e.scale
	if v > e.top {
		v = e.top
	}
	return v
}

// Mean returns the snapshot's exact sum/count mean.
func (e *Empirical) Mean() float64 { return e.mean }

// Calibration is the full set of per-stage service-time distributions
// the simulator draws from.
type Calibration struct {
	// Source names where the numbers came from: "snapshot" or
	// "analytic" — reports carry it so a prediction is auditable.
	Source string
	// OTSetup is the per-session IKNP OT setup time.
	OTSetup Dist
	// RequestWarm is the online request service time on a pool hit.
	RequestWarm Dist
	// RequestCold is the request service time garbling inline (miss).
	RequestCold Dist
	// Refill is the background pre-garbling time for one pool entry.
	Refill Dist
	// Overhead is the fixed per-session time outside OT setup and
	// request service (handshake, close, accounting), in seconds.
	Overhead float64
}

// FromSnapshot calibrates from a live metrics snapshot. The snapshot
// must carry a non-empty request_seconds histogram (any precompute
// label); stages the snapshot lacks fall back to the analytic model
// for the given shape, and the returned calibration still reports
// Source "snapshot".
func FromSnapshot(snap *obs.Snapshot, rows, cols, width int) (*Calibration, error) {
	if snap == nil {
		return nil, fmt.Errorf("capmodel: nil snapshot")
	}
	an, err := Analytic(rows, cols, width)
	if err != nil {
		return nil, err
	}
	cal := &Calibration{Source: "snapshot", OTSetup: an.OTSetup,
		RequestWarm: an.RequestWarm, RequestCold: an.RequestCold, Refill: an.Refill}

	warm, warmOK := snap.Histogram("request_seconds", map[string]string{"precompute": "hit"})
	// Misses and precompute-off requests garble inline — one cold
	// regime; merge them by matching on the name alone when no hits or
	// misses are distinguishable.
	cold, coldOK := snap.Histogram("request_seconds", map[string]string{"precompute": "miss"})
	off, offOK := snap.Histogram("request_seconds", map[string]string{"precompute": "off"})
	all, allOK := snap.Histogram("request_seconds", nil)
	if !allOK || all.Count == 0 {
		return nil, fmt.Errorf("capmodel: snapshot has no completed requests to calibrate from")
	}
	if warmOK && warm.Count > 0 {
		if d, err := NewEmpirical(warm); err == nil {
			cal.RequestWarm = d
		}
	}
	coldHist, ok := mergeCold(cold, coldOK, off, offOK)
	if !ok || coldHist.Count == 0 {
		coldHist = all
	}
	if d, err := NewEmpirical(coldHist); err == nil {
		cal.RequestCold = d
		if !warmOK || warm.Count == 0 {
			// No warm observations: a pool hit is at least no slower
			// than inline garbling.
			cal.RequestWarm = d
		}
	}
	if ot, ok := snap.Histogram("ot_setup_seconds", nil); ok && ot.Count > 0 {
		if d, err := NewEmpirical(ot); err == nil {
			cal.OTSetup = d
		}
	}
	if rf, ok := snap.Histogram("precompute_refill_seconds", nil); ok && rf.Count > 0 {
		if d, err := NewEmpirical(rf); err == nil {
			cal.Refill = d
		}
	}
	// Session overhead: whatever mean session time is not explained by
	// OT setup and request service. Sessions here carry one request
	// each (the load generator's shape), so the subtraction is direct.
	if sess, ok := snap.Histogram("session_seconds", nil); ok && sess.Count > 0 {
		oh := sess.Mean() - cal.OTSetup.Mean() - all.Mean()
		if oh > 0 {
			cal.Overhead = oh
		}
	}
	return cal, nil
}

// mergeCold combines the miss and off histograms bucket-by-bucket;
// both describe the same inline-garbling regime.
func mergeCold(a obs.HistogramSnapshot, aOK bool, b obs.HistogramSnapshot, bOK bool) (obs.HistogramSnapshot, bool) {
	switch {
	case aOK && a.Count > 0 && (!bOK || b.Count == 0):
		return a, true
	case bOK && b.Count > 0 && (!aOK || a.Count == 0):
		return b, true
	case !aOK || !bOK:
		return obs.HistogramSnapshot{}, false
	}
	if len(a.Bounds) != len(b.Bounds) {
		return a, true
	}
	m := obs.HistogramSnapshot{Name: a.Name, Bounds: a.Bounds,
		Counts: make([]uint64, len(a.Counts)), Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	for i := range a.Counts {
		m.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return m, true
}

// tableBytes is the modelled wire size of one garbled table: two
// 128-bit rows per AND table under the half-gates row reduction.
const tableBytes = 32

// analyticOTSetup is the per-session OT setup in seconds: κ = 128
// P-256 base transfers plus the IKNP seed expansion. It is host
// public-key work, nothing the FPGA cost model covers, so it is a
// measured software constant, not derived: maxperf's cold_session
// ot.ext_setup_ms reads 11.7 ms on an otherwise idle 2-vCPU 2.1 GHz
// Xeon. A loaded server reads higher (ot_setup_seconds averaged 23 ms
// under `maxcap -validate` at 8 sessions in flight); that contention
// is the CPU station's to model, not this constant's.
const analyticOTSetup = 0.012

// Analytic is the measurement-free floor: garbling time from the
// paper's cycle counts at the device clock, transfer time from the
// PCIe drain model, OT setup as a documented software constant. Widths
// outside the schedule's power-of-two domain are rejected.
func Analytic(rows, cols, width int) (*Calibration, error) {
	s, err := sched.Build(width)
	if err != nil {
		return nil, err
	}
	garble := fpga.VCU108.CyclesToDuration(s.ShapeCycles(rows, cols)).Seconds()
	transfer := fpga.DefaultPCIe.TransferTime(int(s.ShapeTables(rows, cols)) * tableBytes).Seconds()
	// Per-round OT and decode ride within the same order as transfer;
	// the warm path pays transfer only, the cold path garbles first.
	warm := transfer + float64(rows)*fpga.DefaultPCIe.LatencyPerTransfer.Seconds()
	cold := garble + warm
	return &Calibration{
		Source:      "analytic",
		OTSetup:     Const(analyticOTSetup),
		RequestWarm: Const(warm),
		RequestCold: Const(cold),
		Refill:      Const(garble),
	}, nil
}

// Describe renders the calibration's stage means for reports.
func (c *Calibration) Describe() map[string]float64 {
	return map[string]float64{
		"ot_setup_mean_sec":     c.OTSetup.Mean(),
		"request_warm_mean_sec": c.RequestWarm.Mean(),
		"request_cold_mean_sec": c.RequestCold.Mean(),
		"refill_mean_sec":       c.Refill.Mean(),
		"session_overhead_sec":  c.Overhead,
	}
}
