package load

import (
	"sort"

	"maxelerator/internal/obs"
)

// Percentiles summarizes a latency sample set in milliseconds by the
// nearest-rank rule (obs.NearestRank).
type Percentiles struct {
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	MaxMs  float64 `json:"max_ms"`
	// Samples is the population size the percentiles were cut from.
	Samples int `json:"samples"`
}

// Summarize reduces latency samples (seconds) to Percentiles. Empty
// input yields the zero value.
func Summarize(seconds []float64) Percentiles {
	if len(seconds) == 0 {
		return Percentiles{}
	}
	s := append([]float64(nil), seconds...)
	sort.Float64s(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	ms := func(v float64) float64 { return v * 1000 }
	return Percentiles{
		P50Ms:   ms(obs.NearestRank(s, 50)),
		P90Ms:   ms(obs.NearestRank(s, 90)),
		P95Ms:   ms(obs.NearestRank(s, 95)),
		P99Ms:   ms(obs.NearestRank(s, 99)),
		MeanMs:  ms(sum / float64(len(s))),
		MaxMs:   ms(s[len(s)-1]),
		Samples: len(s),
	}
}

// PoolStats is the precompute warm-pool outcome of a run.
type PoolStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// HitRate is Hits / (Hits + Misses); 0 when the pool saw no
	// traffic.
	HitRate float64 `json:"hit_rate"`
}

// NewPoolStats derives the rate from the counters.
func NewPoolStats(hits, misses uint64) *PoolStats {
	ps := &PoolStats{Hits: hits, Misses: misses}
	if t := hits + misses; t > 0 {
		ps.HitRate = float64(hits) / float64(t)
	}
	return ps
}

// Report is the outcome of one load run — the shared shape of the live
// generator's measurement and (embedded in capmodel.Result) the
// simulator's prediction.
type Report struct {
	// Target is the dialed address ("" for a simulated run).
	Target string `json:"target,omitempty"`
	// Scenario echoes the driving scenario.
	Scenario Scenario `json:"scenario"`

	// Offered counts scheduled arrivals; OfferedRate is
	// Offered/DurationSec.
	Offered     int     `json:"offered"`
	OfferedRate float64 `json:"offered_rate"`
	// Started counts sessions actually launched (arrivals minus
	// Skipped).
	Started int `json:"started"`
	// Skipped counts arrivals dropped at the client-side MaxInflight
	// cap — open-loop pressure the fleet never saw.
	Skipped int `json:"skipped"`
	// Succeeded, Shed, Failed and Miscomputed partition the started
	// sessions: clean result, BUSY rejection, hard error, and — only
	// when Config.Matrix gave the run an oracle — a completed session
	// whose result was wrong.
	Succeeded   int `json:"succeeded"`
	Shed        int `json:"shed"`
	Failed      int `json:"failed"`
	Miscomputed int `json:"miscomputed,omitempty"`
	// FirstError is the error text of the first hard failure to
	// complete, so a run that failed says why without per-session logs.
	FirstError string `json:"first_error,omitempty"`
	// AchievedRate is Succeeded/DurationSec — the rate the fleet
	// actually sustained against the offered load.
	AchievedRate float64 `json:"achieved_rate"`

	// Latency summarizes successful sessions, arrival to result.
	Latency Percentiles `json:"latency"`
	// Pool is the warm-pool outcome when the target's metrics surface
	// was readable (or the simulator's pool model); nil otherwise.
	Pool *PoolStats `json:"pool,omitempty"`
}

// Finalize fills the derived fields from the raw counters.
func (r *Report) Finalize(latencySeconds []float64) {
	r.Latency = Summarize(latencySeconds)
	if r.Scenario.DurationSec > 0 {
		r.OfferedRate = float64(r.Offered) / r.Scenario.DurationSec
		// AchievedRate is normalized by the scenario window, not the
		// wall clock, so live and simulated runs divide by the same
		// denominator.
		r.AchievedRate = float64(r.Succeeded) / r.Scenario.DurationSec
	}
}
