package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"maxelerator/internal/backend"
	"maxelerator/internal/protocol"
)

// startDaemon is `maxd -demo-rows 4 -b 8 -precompute` with a metrics
// surface: the README's load-generation target.
func startDaemon(t *testing.T) *backend.Backend {
	t.Helper()
	model := [][]int64{{3, -1, 4, 1}, {-5, 9, 2, -6}, {5, 3, -5, 8}, {9, -7, 9, 3}}
	b, err := backend.Start(backend.Config{
		Listen: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0", Matrix: model, Width: 8,
		Timeouts:   protocol.Timeouts{Handshake: 10 * time.Second, IO: 10 * time.Second},
		Precompute: true, PrecomputePool: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// The README scenario serves: every session of the model's own shape
// succeeds, and the pool spends exactly one Take per result — no entry
// is burned by a session that cannot be served.
func TestReadmeScenarioServes(t *testing.T) {
	b := startDaemon(t)
	r, err := run([]string{"-target", b.Addr(), "-metrics", "http://" + b.MetricsAddr(),
		"-rate", "20", "-duration", "1s", "-shape", "4x4/b=8"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if r.Succeeded == 0 || r.Failed != 0 || r.Miscomputed != 0 || r.FirstError != "" {
		t.Fatalf("succeeded %d, failed %d, miscomputed %d, first_error %q", r.Succeeded, r.Failed, r.Miscomputed, r.FirstError)
	}
	if r.Pool == nil || int(r.Pool.Hits+r.Pool.Misses) != r.Succeeded {
		t.Fatalf("pool %+v for %d results: want hits+misses == succeeded", r.Pool, r.Succeeded)
	}
}

// A shape the target's model does not have cannot be served, and the
// report says why without -v.
func TestForeignShapeFailsWithCause(t *testing.T) {
	b := startDaemon(t)
	var out strings.Builder
	r, err := run([]string{"-target", b.Addr(), "-rate", "10", "-duration", "500ms", "-shape", "2x8/b=8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	const cause = "server expects a 4-element vector, client holds 8"
	if r.Succeeded != 0 || r.Failed == 0 || !strings.Contains(r.FirstError, cause) {
		t.Fatalf("succeeded %d, failed %d, first_error %q; want every session failed by %q", r.Succeeded, r.Failed, r.FirstError, cause)
	}
	if !strings.Contains(out.String(), cause) {
		t.Errorf("the failed line does not print the cause:\n%s", out.String())
	}
}
