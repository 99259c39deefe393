package main

// In-memory spans recorded by the harness around its calls into the
// protocol layer. Spans inside the program are ROADMAP item 4; until
// then the layer boundaries maxperf can see are the public calls.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Client and server spans of the same request
// carry the same (Conn, Req) pair: each endpoint counts connections and
// requests itself, and with one client connection in a closed loop the
// counts agree, so no identifier has to travel with the request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Name   string `json:"name"`
	Side   string `json:"side"` // "client" or "server"
	Conn   int    `json:"conn"`
	Req    int    `json:"req"` // -1 for connection-level spans
	// Start and End are microseconds since the tracer was created.
	Start float64 `json:"start_us"`
	End   float64 `json:"end_us"`
}

// tracer collects spans in memory. A nil tracer records nothing, which
// is the untraced run; a non-nil tracer can be paused so a traced run
// can clock untraced blocks for the overhead figure.
type tracer struct {
	on          atomic.Bool
	t0          time.Time
	clientConns atomic.Int64
	serverConns atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// nextClientConn and nextServerConn number the connections each
// endpoint has opened. They advance while the tracer is paused, so the
// two sides stay in step.
func (t *tracer) nextClientConn() int {
	if t == nil {
		return 0
	}
	return int(t.clientConns.Add(1))
}

func (t *tracer) nextServerConn() int {
	if t == nil {
		return 0
	}
	return int(t.serverConns.Add(1))
}

// start opens a span and returns its id, 0 while tracing is off.
func (t *tracer) start(parent int, name, side string, conn, req int) int {
	if !t.enabled() {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Side: side, Conn: conn, Req: req,
		Start: us(now.Sub(t.t0)),
	})
	return id
}

// finish closes a span opened by start. A span that straddles a pause
// (a server waiting for the next request while the client switches to
// an untraced block) stays open and is dropped on output.
func (t *tracer) finish(id int) {
	if id == 0 || !t.enabled() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = us(now.Sub(t.t0))
	t.mu.Unlock()
}

// timed runs f as a client span under parent.
func (t *tracer) timed(parent int, name string, conn, req int, f func() error) error {
	id := t.start(parent, name, "client", conn, req)
	err := f()
	t.finish(id)
	return err
}

// closed returns the spans that were finished.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// causes maps a server span to the client span that caused it.
var causes = map[string]string{"new_session": "dial", "serve": "do"}

// write links each server span to its causing client span and dumps
// everything as JSON.
func (t *tracer) write(path, workload string) error {
	spans := t.closed()
	type key struct {
		name      string
		conn, req int
	}
	client := make(map[key]int)
	for _, s := range spans {
		if s.Side == "client" {
			client[key{s.Name, s.Conn, s.Req}] = s.ID
		}
	}
	for i, s := range spans {
		if s.Side == "server" {
			spans[i].Parent = client[key{causes[s.Name], s.Conn, s.Req}]
		}
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Clock    string `json:"clock"`
		Spans    []span `json:"spans"`
	}{workload, "microseconds since the tracer started", spans}, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
