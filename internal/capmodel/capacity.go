package capmodel

import (
	"fmt"

	"maxelerator/internal/load"
)

// SLO is the service objective a capacity figure is quoted against.
type SLO struct {
	// P99Ms is the latency ceiling: the predicted p99 must not exceed
	// it.
	P99Ms float64 `json:"p99_ms"`
	// MaxShedFrac bounds the tolerated shed fraction of offered load
	// (default 0.01).
	MaxShedFrac float64 `json:"max_shed_frac"`
}

func (s SLO) withDefaults() SLO {
	if s.MaxShedFrac <= 0 {
		s.MaxShedFrac = 0.01
	}
	return s
}

// meets reports whether a simulated run satisfies the SLO. A run with
// no successes never does.
func (s SLO) meets(r *Result) bool {
	if r.Succeeded == 0 {
		return false
	}
	if r.Latency.P99Ms > s.P99Ms {
		return false
	}
	dropped := r.Shed + r.Failed + r.Skipped
	return float64(dropped) <= s.MaxShedFrac*float64(r.Offered)
}

// SustainableQPS binary-searches the highest offered rate the fleet
// sustains within the SLO, probing with the scenario's process, shape
// and seed at each candidate rate. The search runs over
// [minRate, maxRate] to a 2% relative resolution; the defaults are
// 0.5 and 2048 QPS, a ceiling a 12 ms session setup leaves room under
// (a pooled backend sustains hundreds of sessions a second).
func SustainableQPS(sc load.Scenario, fl Fleet, cal *Calibration, slo SLO, minRate, maxRate float64) (float64, error) {
	slo = slo.withDefaults()
	if minRate <= 0 {
		minRate = 0.5
	}
	if maxRate <= minRate {
		maxRate = minRate * 4096
	}
	probe := func(rate float64) (bool, error) {
		s := sc
		s.Rate = rate
		r, err := Simulate(s, fl, cal)
		if err != nil {
			return false, err
		}
		return slo.meets(r), nil
	}
	ok, err := probe(minRate)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, nil // the fleet cannot sustain even the floor rate
	}
	lo, hi := minRate, maxRate
	if ok, err := probe(hi); err != nil {
		return 0, err
	} else if ok {
		return hi, nil
	}
	for hi-lo > 0.02*lo {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// CapacityCell is one row of the published capacity table.
type CapacityCell struct {
	Backends    int     `json:"backends"`
	PoolDepth   int     `json:"pool_depth"`
	MaxSessions int     `json:"max_sessions"`
	QPS         float64 `json:"qps"`
}

// CapacityTable sweeps fleet configurations and reports the
// sustainable QPS of each under the SLO — the operator-facing output
// of the whole model.
func CapacityTable(sc load.Scenario, base Fleet, cal *Calibration, slo SLO,
	backends, poolDepths, maxSessions []int) ([]CapacityCell, error) {
	var out []CapacityCell
	for _, nb := range backends {
		for _, pd := range poolDepths {
			for _, ms := range maxSessions {
				fl := base
				fl.Backends, fl.PoolDepth, fl.MaxSessions = nb, pd, ms
				qps, err := SustainableQPS(sc, fl, cal, slo, 0, 0)
				if err != nil {
					return nil, fmt.Errorf("capmodel: sweep backends=%d pool=%d sessions=%d: %w", nb, pd, ms, err)
				}
				out = append(out, CapacityCell{Backends: nb, PoolDepth: pd, MaxSessions: ms, QPS: qps})
			}
		}
	}
	return out, nil
}
