package obs

import (
	"fmt"
	"sync"
	"time"
)

// Tracer records span-based phase traces of recent protocol sessions
// in a fixed-capacity ring: always-on, bounded-memory flight
// recording, queryable over /debug/sessions while the daemon runs.
//
// Timing is monotonic: a SessionTrace anchors time.Now() once (Go wall
// times carry a monotonic reading) and every span start/end is a
// time.Since offset from that anchor, so durations are immune to wall
// clock steps.
type Tracer struct {
	mu     sync.Mutex
	nextID uint64
	ring   []*SessionTrace
	cap    int
}

// DefaultTraceCapacity is the ring size used by NewTracer(0).
const DefaultTraceCapacity = 64

// NewTracer creates a tracer retaining the last capacity sessions
// (DefaultTraceCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{cap: capacity}
}

// StartSession opens a new session trace tagged with an ID like
// "s-000042" and the peer's address. Nil-safe: a nil tracer returns a
// nil trace whose methods are all no-ops.
func (t *Tracer) StartSession(kind, peer string) *SessionTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	st := &SessionTrace{
		id:    fmt.Sprintf("s-%06d", t.nextID),
		kind:  kind,
		peer:  peer,
		start: time.Now(),
		attrs: make(map[string]string),
	}
	if len(t.ring) == t.cap {
		copy(t.ring, t.ring[1:])
		t.ring[len(t.ring)-1] = st
	} else {
		t.ring = append(t.ring, st)
	}
	t.mu.Unlock()
	return st
}

// MaxSpans bounds the spans one session trace keeps, so a connection
// that stays open for request after request cannot grow the daemon's
// memory without bound.
const MaxSpans = 1024

// spanBlock is the largest block a session trace carves spans from.
// Spans come in blocks that double from 4 up to it, so a request's
// spans cost a heap object per block, not per span: a warm request
// allocates as much while its trace fills as after it is full.
const spanBlock = 64

// SessionTrace is one protocol session's phase record.
type SessionTrace struct {
	mu      sync.Mutex
	id      string
	kind    string
	peer    string
	start   time.Time
	end     time.Duration
	done    bool
	errs    string
	attrs   map[string]string
	spans   []*Span
	block   []Span // the spans' current block; a full one is replaced, never grown
	dropped int64  // spans refused past MaxSpans
}

// ID returns the session's assigned identifier ("" on a nil trace).
func (s *SessionTrace) ID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// StartSpan opens a named phase span (handshake, ot_setup,
// round_garble, decode, ...). Spans may overlap; End closes one. Past
// MaxSpans it records nothing and returns the nil span, a no-op; the
// snapshot counts it in SpansDropped.
func (s *SessionTrace) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.spans) == MaxSpans {
		s.dropped++
		return nil
	}
	if len(s.block) == cap(s.block) {
		s.block = make([]Span, 0, min(max(2*cap(s.block), 4), spanBlock))
	}
	s.block = append(s.block, Span{parent: s, name: name, start: time.Since(s.start)})
	sp := &s.block[len(s.block)-1]
	s.spans = append(s.spans, sp)
	return sp
}

// SetAttr attaches a key/value annotation (rows, cols, bytes, ...).
func (s *SessionTrace) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs[key] = value
	s.mu.Unlock()
}

// Finish closes the session, recording the terminal error if any.
// It returns the total monotonic session duration.
func (s *SessionTrace) Finish(err error) time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.done {
		s.end = time.Since(s.start)
		s.done = true
		if err != nil {
			s.errs = err.Error()
		}
	}
	return s.end
}

// Span is one timed phase within a session.
type Span struct {
	parent *SessionTrace
	name   string
	start  time.Duration
	dur    time.Duration
	done   bool
}

// End closes the span and returns its monotonic duration.
func (sp *Span) End() time.Duration {
	if sp == nil {
		return 0
	}
	s := sp.parent
	s.mu.Lock()
	defer s.mu.Unlock()
	if !sp.done {
		sp.dur = time.Since(s.start) - sp.start
		sp.done = true
	}
	return sp.dur
}

// SpanSnapshot is the JSON form of one span.
type SpanSnapshot struct {
	Name string `json:"name"`
	// StartUS is the span's start offset from session start, µs.
	StartUS int64 `json:"start_us"`
	// DurationUS is the span's monotonic duration, µs (-1 if still
	// open when snapshotted).
	DurationUS int64 `json:"duration_us"`
}

// SessionSnapshot is the JSON form of one session trace.
type SessionSnapshot struct {
	ID    string    `json:"id"`
	Kind  string    `json:"kind"`
	Peer  string    `json:"peer,omitempty"`
	Start time.Time `json:"start"`
	// DurationUS is the total session duration, µs (-1 if in flight).
	DurationUS int64             `json:"duration_us"`
	Done       bool              `json:"done"`
	Err        string            `json:"err,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Spans      []SpanSnapshot    `json:"spans"`
	// SpansDropped counts the spans refused past MaxSpans.
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// SpanCount returns how many of the snapshot's spans carry name —
// multiplexed sessions repeat per-request spans (rounds, decode) under
// one trace, and assertions about amortization ("exactly one ot_setup
// for eight requests") are counts over span names.
func (s SessionSnapshot) SpanCount(name string) int {
	n := 0
	for _, sp := range s.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

func (s *SessionTrace) snapshot() SessionSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := SessionSnapshot{
		ID: s.id, Kind: s.kind, Peer: s.peer, Start: s.start,
		DurationUS: -1, Done: s.done, Err: s.errs, SpansDropped: s.dropped,
	}
	if s.done {
		snap.DurationUS = s.end.Microseconds()
	}
	if len(s.attrs) > 0 {
		snap.Attrs = make(map[string]string, len(s.attrs))
		for k, v := range s.attrs {
			snap.Attrs[k] = v
		}
	}
	snap.Spans = make([]SpanSnapshot, len(s.spans))
	for i, sp := range s.spans {
		ss := SpanSnapshot{Name: sp.name, StartUS: sp.start.Microseconds(), DurationUS: -1}
		if sp.done {
			ss.DurationUS = sp.dur.Microseconds()
		}
		snap.Spans[i] = ss
	}
	return snap
}

// Recent returns snapshots of up to n recent sessions, newest first
// (all retained sessions if n <= 0).
func (t *Tracer) Recent(n int) []SessionSnapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	traces := append([]*SessionTrace(nil), t.ring...)
	t.mu.Unlock()
	if n <= 0 || n > len(traces) {
		n = len(traces)
	}
	out := make([]SessionSnapshot, 0, n)
	for i := len(traces) - 1; i >= len(traces)-n; i-- {
		out = append(out, traces[i].snapshot())
	}
	return out
}
