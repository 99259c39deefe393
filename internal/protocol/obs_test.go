package protocol

import (
	"crypto/rand"
	"errors"
	"strings"
	"sync"
	"testing"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/wire"
)

// runObservedSession runs one matvec session against an instrumented
// server and returns the hub for inspection.
func runObservedSession(t *testing.T, mode OTMode) *obs.Obs {
	t.Helper()
	o := obs.New(8)
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.WithObs(o)
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()

	A := [][]int64{{1, 2, 3}, {-4, 5, -6}}
	y := []int64{7, -8, 9}
	var wg sync.WaitGroup
	var srvErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, srvErr = serveOne(srv, a, SessionConfig{}, Request{Matrix: A, OT: mode})
	}()
	if _, err := clientRun(cli, b, y); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return o
}

func TestSessionMetricsRecorded(t *testing.T) {
	o := runObservedSession(t, OTPerRound)
	reg := o.Metrics()
	if got := reg.Counter("sessions_total", "", obs.L("kind", "mux")).Value(); got != 1 {
		t.Fatalf("sessions_total = %d", got)
	}
	if got := reg.Gauge("sessions_active", "").Value(); got != 0 {
		t.Fatalf("sessions_active = %d after completion", got)
	}
	// 2 rows × 3 cols = 6 MAC rounds recorded by the simulator.
	if got := reg.Counter("macs_total", "").Value(); got != 6 {
		t.Fatalf("macs_total = %d", got)
	}
	for _, name := range []string{"cycles_total", "stages_total", "tables_garbled_total", "table_bytes_total"} {
		if reg.Counter(name, "").Value() == 0 {
			t.Fatalf("%s did not move", name)
		}
	}
	// The b=8 grid is perfectly packed (0 idle slots/stage), so the
	// idle counter must stay exactly zero — a packed schedule reporting
	// phantom idleness would be a bug.
	if got := reg.Counter("idle_slots_total", "").Value(); got != 0 {
		t.Fatalf("idle_slots_total = %d on a fully packed schedule", got)
	}
	if reg.Histogram("ot_setup_seconds", "", nil).Count() != 1 {
		t.Fatal("ot_setup_seconds not observed")
	}
	if reg.Histogram("session_seconds", "", nil, obs.L("kind", "mux")).Count() != 1 {
		t.Fatal("session_seconds not observed")
	}
	// Per-core idle-slot counters: the b=8 schedule has idle slots on
	// some core each stage; the summed family must match the aggregate.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `core_idle_slots_total{core="`) {
		t.Fatalf("no per-core idle counters in exposition:\n%s", sb.String())
	}
}

func TestSessionTraceSpans(t *testing.T) {
	o := runObservedSession(t, OTPerRound)
	snaps := o.Traces().Recent(0)
	if len(snaps) != 1 {
		t.Fatalf("%d traces", len(snaps))
	}
	s := snaps[0]
	if !s.Done || s.Err != "" || s.DurationUS <= 0 {
		t.Fatalf("trace %+v", s)
	}
	if s.Kind != "mux" || s.Attrs["rows"] != "2" || s.Attrs["cols"] != "3" {
		t.Fatalf("trace attrs %+v", s)
	}
	// Phase taxonomy: handshake → ot_setup → rounds (+ per-row
	// round_garble) → decode, every closed span with a monotonic
	// duration.
	var names []string
	for _, sp := range s.Spans {
		names = append(names, sp.Name)
		if sp.DurationUS < 0 {
			t.Fatalf("span %s left open", sp.Name)
		}
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"handshake", "ot_setup", "rounds", "round_garble[0]", "round_garble[1]", "decode"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing span %q in %v", want, names)
		}
	}
	// ot_setup and rounds do real crypto work; their durations must be
	// non-zero.
	for _, sp := range s.Spans {
		if (sp.Name == "ot_setup" || sp.Name == "rounds") && sp.DurationUS == 0 {
			t.Fatalf("span %s has zero duration", sp.Name)
		}
	}
}

func TestFailedSessionCountsError(t *testing.T) {
	o := obs.New(4)
	srv, err := NewServer(maxsim.Config{Width: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv.WithObs(o)
	a, b := wire.Pipe()
	defer a.Close()
	// The client hangs up during the handshake, so the session fails
	// before it opens.
	b.Close()
	if _, err := srv.NewSession(a, SessionConfig{}); err == nil {
		t.Fatal("session opened against a client that hung up")
	}
	if got := o.Metrics().Counter("session_errors_total", "", obs.L("kind", "mux")).Value(); got != 1 {
		t.Fatalf("session_errors_total = %d", got)
	}
	if got := o.Metrics().Gauge("sessions_active", "").Value(); got != 0 {
		t.Fatalf("sessions_active = %d after failure", got)
	}
	if s := o.Traces().Recent(1)[0]; s.Err == "" || !s.Done {
		t.Fatalf("failed session trace %+v", s)
	}
}

// TestSessionTraceSpansBounded: a multiplexed session opens three spans
// per one-row request (rounds, round_garble[0], decode) for as long as
// its client stays connected, and used to keep every one of them — in
// the live session and among the tracer's retained traces — so one
// long-lived connection grew the daemon's memory with every request.
// The trace now keeps obs.MaxSpans spans and counts the rest.
func TestSessionTraceSpansBounded(t *testing.T) {
	o := obs.New(8)
	srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.WithObs(o)
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	a, b := wire.Pipe()
	defer a.Close()
	defer b.Close()
	const requests = obs.MaxSpans/3 + 10
	srvDone := make(chan error, 1)
	go func() {
		sess, err := srv.NewSession(a, SessionConfig{})
		if err != nil {
			srvDone <- err
			return
		}
		defer sess.Close()
		for {
			if _, err := sess.Serve(Request{Matrix: [][]int64{{3}}}); err != nil {
				if errors.Is(err, ErrSessionEnded) {
					err = nil
				}
				srvDone <- err
				return
			}
		}
	}()
	cs, err := cli.Dial(b)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < requests; r++ {
		if out, err := cs.Do([]int64{5}); err != nil || out[0] != 15 {
			t.Fatalf("request %d: %v %v", r, out, err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
	s := o.Traces().Recent(1)[0]
	opened := 2 + 3*requests // handshake and ot_setup, then three per request
	if len(s.Spans) != obs.MaxSpans || s.SpansDropped != int64(opened-obs.MaxSpans) {
		t.Fatalf("trace keeps %d spans and dropped %d after %d opened, want %d and %d",
			len(s.Spans), s.SpansDropped, opened, obs.MaxSpans, opened-obs.MaxSpans)
	}
}

// TestUninstrumentedServerStillWorks pins the nil-safety contract: a
// server without WithObs must serve sessions exactly as before.
func TestUninstrumentedServerStillWorks(t *testing.T) {
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	out, _, _ := runSession(t, cfg, [][]int64{{2, 3}}, []int64{4, 5})
	if out[0] != 2*4+3*5 {
		t.Fatalf("result = %d", out[0])
	}
}
