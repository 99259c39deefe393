package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSessionSpanLifecycle(t *testing.T) {
	tr := NewTracer(8)
	st := tr.StartSession("matvec", "127.0.0.1:9")
	if st.ID() != "s-000001" {
		t.Fatalf("id = %q", st.ID())
	}
	sp := st.StartSpan("handshake")
	time.Sleep(time.Millisecond)
	if d := sp.End(); d <= 0 {
		t.Fatalf("span duration %v not positive", d)
	}
	st.SetAttr("rows", "2")
	total := st.Finish(nil)
	if total <= 0 {
		t.Fatalf("session duration %v not positive", total)
	}

	snaps := tr.Recent(0)
	if len(snaps) != 1 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	s := snaps[0]
	if !s.Done || s.Err != "" || s.DurationUS <= 0 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Attrs["rows"] != "2" || s.Kind != "matvec" || s.Peer != "127.0.0.1:9" {
		t.Fatalf("snapshot %+v", s)
	}
	if len(s.Spans) != 1 || s.Spans[0].Name != "handshake" || s.Spans[0].DurationUS <= 0 {
		t.Fatalf("spans %+v", s.Spans)
	}
}

func TestFinishRecordsErrorOnce(t *testing.T) {
	tr := NewTracer(2)
	st := tr.StartSession("matvec", "")
	first := st.Finish(errors.New("boom"))
	second := st.Finish(nil) // idempotent; must not clear the error
	if first != second {
		t.Fatalf("durations differ: %v vs %v", first, second)
	}
	if got := tr.Recent(1)[0].Err; got != "boom" {
		t.Fatalf("err = %q", got)
	}
}

func TestRingEvictsOldestNewestFirst(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.StartSession("matvec", fmt.Sprintf("peer-%d", i)).Finish(nil)
	}
	snaps := tr.Recent(0)
	if len(snaps) != 3 {
		t.Fatalf("%d retained", len(snaps))
	}
	// Newest first: peers 4, 3, 2.
	for i, want := range []string{"peer-4", "peer-3", "peer-2"} {
		if snaps[i].Peer != want {
			t.Fatalf("snaps[%d].Peer = %q, want %q", i, snaps[i].Peer, want)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].Peer != "peer-4" {
		t.Fatalf("Recent(2) = %+v", got)
	}
}

func TestOpenSpanSnapshotsAsInFlight(t *testing.T) {
	tr := NewTracer(1)
	st := tr.StartSession("matvec", "")
	st.StartSpan("ot_setup") // never ended
	s := tr.Recent(0)[0]
	if s.Done || s.DurationUS != -1 {
		t.Fatalf("in-flight session snapshot %+v", s)
	}
	if s.Spans[0].DurationUS != -1 {
		t.Fatalf("open span snapshot %+v", s.Spans[0])
	}
}

func TestTracerNilSafety(t *testing.T) {
	var tr *Tracer
	st := tr.StartSession("x", "y")
	sp := st.StartSpan("z")
	sp.End()
	st.SetAttr("a", "b")
	st.Finish(nil)
	if st.ID() != "" || tr.Recent(0) != nil {
		t.Fatal("nil tracer leaked state")
	}
}

// TestTracerConcurrentSessions races many sessions, spans and
// snapshot reads (run under -race).
func TestTracerConcurrentSessions(t *testing.T) {
	tr := NewTracer(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				st := tr.StartSession("matvec", fmt.Sprintf("w%d", w))
				sp := st.StartSpan("rounds")
				st.SetAttr("i", "1")
				sp.End()
				st.Finish(nil)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr.Recent(0)
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Recent(0)); got != 16 {
		t.Fatalf("retained %d sessions", got)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestHandlerSurface(t *testing.T) {
	o := New(4)
	o.Metrics().Counter("sessions_total", "sessions").Add(3)
	st := o.Traces().StartSession("matvec", "p")
	st.StartSpan("handshake").End()
	st.Finish(nil)

	srv := httptest.NewServer(o.Handler())
	defer srv.Close()

	body := httpGet(t, srv.URL+"/metrics")
	if !strings.Contains(body, "sessions_total 3") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	body = httpGet(t, srv.URL+"/debug/sessions")
	var parsed struct {
		Sessions []SessionSnapshot `json:"sessions"`
	}
	if err := json.Unmarshal([]byte(body), &parsed); err != nil {
		t.Fatalf("debug/sessions not JSON: %v\n%s", err, body)
	}
	if len(parsed.Sessions) != 1 || parsed.Sessions[0].Spans[0].Name != "handshake" {
		t.Fatalf("sessions = %+v", parsed.Sessions)
	}
	if body = httpGet(t, srv.URL+"/healthz"); body != "ok\n" {
		t.Fatalf("healthz = %q", body)
	}
}

func TestSpanCount(t *testing.T) {
	tr := NewTracer(2).StartSession("mux", "")
	for i := 0; i < 3; i++ {
		tr.StartSpan("rounds").End()
	}
	tr.StartSpan("ot_setup").End()
	tr.Finish(nil)
	s := tr.snapshot()
	if got := s.SpanCount("rounds"); got != 3 {
		t.Fatalf("SpanCount(rounds) = %d", got)
	}
	if got := s.SpanCount("ot_setup"); got != 1 {
		t.Fatalf("SpanCount(ot_setup) = %d", got)
	}
	if got := s.SpanCount("decode"); got != 0 {
		t.Fatalf("SpanCount(decode) = %d", got)
	}
}

// TestSpansAllocatePerBlock: a span costs a share of its block, not a
// heap object of its own, so a warm request's spans allocate about as
// much while its session trace fills as once it is full (each request
// of the serve path opens one span per row, and the benchmark's short
// and long runs count the same objects per request). Every span still
// keeps its own start and duration.
func TestSpansAllocatePerBlock(t *testing.T) {
	st := NewTracer(1).StartSession("mux", "peer")
	const perRequest = 18
	if allocs := testing.AllocsPerRun(20, func() {
		for range perRequest {
			st.StartSpan("round_garble").End()
		}
	}); allocs >= perRequest/2 {
		t.Fatalf("%d spans allocate %.1f objects, want well under one per span", perRequest, allocs)
	}
	snap := st.snapshot()
	if len(snap.Spans) != 21*perRequest {
		t.Fatalf("%d spans recorded, want %d", len(snap.Spans), 21*perRequest)
	}
	for i, sp := range snap.Spans {
		if sp.DurationUS < 0 {
			t.Fatalf("span %d is still open after End", i)
		}
	}
}
