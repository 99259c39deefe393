// Package load is the open-loop traffic generator of the capacity
// toolchain: seeded arrival processes (Poisson, uniform, burst) of
// sessions of one shape — the shape of the model the target serves; the
// garbler owns the model, so a client cannot pick another — driven
// against a real maxd or maxgw fleet by the generator in load.go, and —
// critically — precomputed as an explicit arrival schedule that the
// capacity simulator (internal/capmodel) replays verbatim. Generator
// and simulator seeing the *same* arrival instants is what makes their
// reports comparable: any disagreement is model error, never schedule
// noise.
package load

import (
	"fmt"
	"math/rand"

	"maxelerator/internal/protocol"
)

// Shape is the request shape every session of a scenario offers: the
// target's model is Rows×Cols at Width bits.
type Shape struct {
	Rows  int `json:"rows"`
	Cols  int `json:"cols"`
	Width int `json:"width"`
}

// Hint is the shape-hint preface a session opens with; its Key() is the
// label /shapez and precompute_*{shape} carry (signed operands and
// per-round OT are the one mode a backend serves).
func (s Shape) Hint() protocol.ShapeHint {
	return protocol.ShapeHint{
		Rows: s.Rows, Cols: s.Cols, Width: s.Width,
		Signed: true, Mode: "matvec", OT: protocol.OTPerRound.String(),
	}
}

func (s Shape) validate() error {
	if s.Rows <= 0 || s.Cols <= 0 || s.Width <= 0 {
		return fmt.Errorf("load: shape %dx%d/b=%d has a non-positive dimension", s.Rows, s.Cols, s.Width)
	}
	return nil
}

// Arrival processes.
const (
	// Poisson draws exponential inter-arrival gaps at the scenario
	// rate — the memoryless open-loop baseline.
	Poisson = "poisson"
	// Uniform spaces arrivals exactly 1/rate apart — a metronome, for
	// isolating queueing effects from arrival variance.
	Uniform = "uniform"
	// Burst releases BurstSize arrivals back-to-back every
	// BurstSize/rate seconds: same offered rate, maximally clumped —
	// the admission queue's worst case.
	Burst = "burst"
)

// Scenario describes one open-loop load run. The same value drives the
// live generator and the simulator.
type Scenario struct {
	// Rate is the offered arrival rate in sessions/second.
	Rate float64 `json:"rate"`
	// Process is the arrival process: Poisson, Uniform or Burst.
	Process string `json:"process"`
	// BurstSize is the clump size under Burst (default 8; ignored
	// otherwise).
	BurstSize int `json:"burst_size,omitempty"`
	// DurationSec is the arrival window in seconds; sessions started
	// inside the window are allowed to finish after it.
	DurationSec float64 `json:"duration_sec"`
	// Seed makes the schedule deterministic: same seed, same arrival
	// instants.
	Seed int64 `json:"seed"`
	// MaxInflight caps concurrent sessions on the client side;
	// arrivals past the cap are counted skipped, never blocked on
	// (open-loop). 0 = unlimited.
	MaxInflight int `json:"max_inflight,omitempty"`
	// Shape is the one request shape offered: the target's model.
	Shape Shape `json:"shape"`
}

// Validate rejects scenarios the generator and simulator cannot agree
// on.
func (s Scenario) Validate() error {
	if s.Rate <= 0 {
		return fmt.Errorf("load: rate %v must be positive", s.Rate)
	}
	if s.DurationSec <= 0 {
		return fmt.Errorf("load: duration %vs must be positive", s.DurationSec)
	}
	switch s.Process {
	case Poisson, Uniform, Burst:
	case "":
		return fmt.Errorf("load: arrival process is required (poisson, uniform or burst)")
	default:
		return fmt.Errorf("load: unknown arrival process %q", s.Process)
	}
	return s.Shape.validate()
}

// ArrivalTimes expands the scenario into its full arrival schedule:
// the instants, in seconds from the run start, at which sessions start.
func ArrivalTimes(s Scenario) ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	gaps := rand.New(rand.NewSource(s.Seed))
	burst := s.BurstSize
	if burst <= 0 {
		burst = 8
	}
	var out []float64
	t := 0.0
	switch s.Process {
	case Poisson:
		for {
			t += gaps.ExpFloat64() / s.Rate
			if t >= s.DurationSec {
				break
			}
			out = append(out, t)
		}
	case Uniform:
		gap := 1 / s.Rate
		for t = gap; t < s.DurationSec; t += gap {
			out = append(out, t)
		}
	case Burst:
		period := float64(burst) / s.Rate
		for t = period; t < s.DurationSec; t += period {
			for k := 0; k < burst; k++ {
				out = append(out, t)
			}
		}
	}
	return out, nil
}
