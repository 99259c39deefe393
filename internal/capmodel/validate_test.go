package capmodel

import (
	"testing"
	"time"

	live "maxelerator/internal/backend"
	"maxelerator/internal/load"
	"maxelerator/internal/protocol"
)

// TestValidateAgainstLiveBackend is the tentpole's closing loop and an
// acceptance criterion of the capacity model: drive a real in-process
// backend (internal/backend over real TCP, real OT, real garbling) with
// the open-loop generator, calibrate the simulator from the histograms that same run
// produced, replay the identical arrival schedule, and require the
// predicted p50/p99 and pool hit-rate to land inside the documented
// tolerance band (DefaultTolerance: 3× or 25 ms; hit-rate ±0.35).
func TestValidateAgainstLiveBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("live validation loop needs seconds of wall clock")
	}
	sc := load.Scenario{
		Rate: 4, Process: load.Poisson, DurationSec: 5, Seed: 7,
		MaxInflight: 8,
		Shape:       load.Shape{Rows: 4, Cols: 4, Width: 8},
	}
	// CPUs = MaxInflight on purpose: the empirical service times were
	// measured under this very concurrency, so their contention is
	// already priced in — a tighter CPU station would double-count it.
	fl := Fleet{
		Backends: 1, MaxSessions: 8, AdmissionWaitSec: 2,
		CPUs: sc.MaxInflight, PoolDepth: 4, WarmStart: true,
	}
	model := [][]int64{{3, -1, 4, 1}, {-5, 9, 2, -6}, {5, 3, -5, 8}, {9, -7, 9, 3}}
	b, err := live.Start(live.Config{
		Listen: "127.0.0.1:0", Matrix: model, Width: 8,
		MaxSessions: fl.MaxSessions, AdmissionWait: 2 * time.Second,
		Timeouts:   protocol.Timeouts{Handshake: 10 * time.Second, IO: 10 * time.Second},
		Precompute: true, PrecomputePool: fl.PoolDepth,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Prefill(fl.PoolDepth); err != nil {
		t.Fatal(err)
	}

	measured, err := load.Run(load.Config{
		Target:   b.Addr(),
		Scenario: sc,
		Registry: b.Registry(),
		Matrix:   model,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("measured: offered=%d succeeded=%d shed=%d failed=%d p50=%.1fms p99=%.1fms pool=%+v",
		measured.Offered, measured.Succeeded, measured.Shed, measured.Failed,
		measured.Latency.P50Ms, measured.Latency.P99Ms, measured.Pool)
	if measured.Succeeded == 0 {
		t.Fatal("live run produced no successful sessions; cannot calibrate")
	}
	if measured.Miscomputed != 0 {
		t.Fatalf("%d sessions returned a wrong result", measured.Miscomputed)
	}

	cal, err := FromSnapshot(b.Registry().Snapshot(), 4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	predicted, err := Simulate(sc, fl, cal)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("predicted: succeeded=%d shed=%d p50=%.1fms p99=%.1fms pool=%+v (stages %+v)",
		predicted.Succeeded, predicted.Shed,
		predicted.Latency.P50Ms, predicted.Latency.P99Ms, predicted.Pool, predicted.StageMeans)

	if viol := Validate(measured, predicted, DefaultTolerance); len(viol) > 0 {
		for _, v := range viol {
			t.Error(v)
		}
	}
	t.Logf("prediction error: %+v", Error(measured, predicted))
}
