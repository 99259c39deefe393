package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// testOutput returns an output plus the two capture buffers (data, msg).
func testOutput(jsonOut bool) (*output, *bytes.Buffer, *bytes.Buffer) {
	data, msg := &bytes.Buffer{}, &bytes.Buffer{}
	return &output{json: jsonOut, data: data, msg: msg}, data, msg
}

// TestRunLatencyJSON runs the smallest real measurement through both
// passes and checks the machine-readable artefact: two modes, sane
// ordering of the percentiles, and a reported speedup.
func TestRunLatencyJSON(t *testing.T) {
	out, data, msg := testOutput(true)
	lc := latencyConfig{rows: 2, cols: 2, width: 8, requests: 3, precompute: true, pool: 1}
	if err := runLatency(lc, out); err != nil {
		t.Fatal(err)
	}
	var rep latencyReport
	if err := json.Unmarshal(data.Bytes(), &rep); err != nil {
		t.Fatalf("latency JSON did not parse: %v\n%s", err, data.String())
	}
	if len(rep.Results) != 2 || rep.Results[0].Mode != "inline" || rep.Results[1].Mode != "precomputed" {
		t.Fatalf("results = %+v, want inline then precomputed", rep.Results)
	}
	for _, r := range rep.Results {
		if r.Requests != 3 {
			t.Fatalf("%s requests = %d, want 3", r.Mode, r.Requests)
		}
		if r.P50Ms <= 0 || r.P50Ms > r.P95Ms || r.P95Ms > r.P99Ms {
			t.Fatalf("%s percentiles not ordered: %+v", r.Mode, r)
		}
	}
	if rep.SpeedupP50 <= 0 {
		t.Fatalf("speedup = %v, want > 0", rep.SpeedupP50)
	}
	// The unified writer contract: the data stream is pure JSON,
	// progress lives on the message stream.
	if !json.Valid(data.Bytes()) {
		t.Fatalf("data stream is not pure JSON:\n%s", data.String())
	}
	if !strings.Contains(msg.String(), "inline pass") {
		t.Fatalf("progress missing from message stream:\n%s", msg.String())
	}
}

func TestRunLatencyHumanOutput(t *testing.T) {
	out, data, msg := testOutput(false)
	lc := latencyConfig{rows: 2, cols: 2, width: 8, requests: 2}
	if err := runLatency(lc, out); err != nil {
		t.Fatal(err)
	}
	s := data.String()
	if !strings.Contains(s, "p50") || !strings.Contains(s, "inline") {
		t.Fatalf("human output missing table:\n%s", s)
	}
	if strings.Contains(s, "precomputed") {
		t.Fatalf("precomputed pass ran without -precompute:\n%s", s)
	}
	// Progress never pollutes the artifact stream.
	if strings.Contains(s, "pass (") {
		t.Fatalf("progress leaked onto the data stream:\n%s", s)
	}
	if msg.Len() == 0 {
		t.Fatal("no progress on the message stream")
	}
}

func TestRunLatencyValidates(t *testing.T) {
	out, _, _ := testOutput(false)
	if err := runLatency(latencyConfig{rows: 0, cols: 2, width: 8, requests: 1}, out); err == nil {
		t.Fatal("zero rows accepted")
	}
	if err := runLatency(latencyConfig{rows: 2, cols: 2, width: 8, requests: 0}, out); err == nil {
		t.Fatal("zero requests accepted")
	}
	if err := runLatency(latencyConfig{rows: 2, cols: 2, width: 7, requests: 1}, out); err == nil {
		t.Fatal("bad width accepted")
	}
}

func TestPassStatsMeanAndOnlineSeconds(t *testing.T) {
	ps := passStats{samples: []time.Duration{time.Millisecond, 3 * time.Millisecond}}
	if got := ps.mean(); got != 2*time.Millisecond {
		t.Fatalf("mean = %v", got)
	}
	if got := ps.onlineSeconds(); got != 0.004 {
		t.Fatalf("onlineSeconds = %v", got)
	}
	var empty passStats
	if empty.mean() != 0 || empty.onlineSeconds() != 0 {
		t.Fatal("empty passStats not zero")
	}
}
