package load

import (
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"maxelerator/internal/obs"
)

var testShape = Shape{Rows: 4, Cols: 4, Width: 8}

func TestArrivalTimesDeterministic(t *testing.T) {
	sc := Scenario{Rate: 50, Process: Poisson, DurationSec: 5, Seed: 42, Shape: testShape}
	a, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	sc.Seed = 43
	c, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}

	// The instants themselves are part of the contract — a maxload run and
	// a maxcap prediction made by different builds describe the same
	// arrivals — so a change to the gap stream's seeding or draw order
	// fails here.
	burst, err := ArrivalTimes(Scenario{Rate: 80, Process: Burst, BurstSize: 8, DurationSec: 2, Seed: 1, Shape: testShape})
	if err != nil {
		t.Fatal(err)
	}
	for _, pin := range []struct {
		name        string
		got         []float64
		n           int
		first, last float64
	}{
		{"poisson seed 42", a, 261, 0.009914768298047957, 4.999474302687036},
		{"burst seed 1", burst, 152, 0.1, 1.9000000000000006},
	} {
		if len(pin.got) != pin.n || pin.got[0] != pin.first || pin.got[pin.n-1] != pin.last {
			t.Errorf("%s: %d arrivals in [%v, %v], want %d in [%v, %v]", pin.name,
				len(pin.got), pin.got[0], pin.got[len(pin.got)-1], pin.n, pin.first, pin.last)
		}
	}
}

func TestArrivalTimesRateAndOrdering(t *testing.T) {
	for _, proc := range []string{Poisson, Uniform, Burst} {
		sc := Scenario{Rate: 100, Process: proc, DurationSec: 10, Seed: 7, Shape: testShape}
		arr, err := ArrivalTimes(sc)
		if err != nil {
			t.Fatal(err)
		}
		// Offered count tracks rate·duration. Poisson fluctuates; 30%
		// slack at n=1000 is > 9 standard deviations.
		want := sc.Rate * sc.DurationSec
		if got := float64(len(arr)); got < want*0.7 || got > want*1.3 {
			t.Errorf("%s: %v arrivals, want ≈%v", proc, got, want)
		}
		prev := 0.0
		for i, at := range arr {
			if at < prev {
				t.Fatalf("%s: arrival %d at %v before %v (not sorted)", proc, i, at, prev)
			}
			if at >= sc.DurationSec {
				t.Fatalf("%s: arrival %d at %v past the %vs window", proc, i, at, sc.DurationSec)
			}
			prev = at
		}
	}
}

func TestBurstClumping(t *testing.T) {
	sc := Scenario{Rate: 80, Process: Burst, BurstSize: 8, DurationSec: 2, Seed: 1, Shape: testShape}
	arr, err := ArrivalTimes(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr)%8 != 0 {
		t.Fatalf("%d arrivals, want a multiple of the burst size 8", len(arr))
	}
	for i := 0; i < len(arr); i += 8 {
		for k := 1; k < 8; k++ {
			if arr[i+k] != arr[i] {
				t.Fatalf("burst at index %d not clumped: %v vs %v", i, arr[i+k], arr[i])
			}
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	good := Scenario{Rate: 1, Process: Poisson, DurationSec: 1, Shape: testShape}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
	}{
		{"zero rate", func(s *Scenario) { s.Rate = 0 }},
		{"zero duration", func(s *Scenario) { s.DurationSec = 0 }},
		{"unknown process", func(s *Scenario) { s.Process = "fractal" }},
		{"bad shape", func(s *Scenario) { s.Shape.Rows = 0 }},
	}
	for _, tc := range cases {
		s := good
		tc.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	// 100 samples 1ms..100ms: the nearest-rank p50 is exactly the 50th.
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i+1) / 1000
	}
	p := Summarize(s)
	if p.P50Ms != 50 || p.P99Ms != 99 || p.MaxMs != 100 || p.Samples != 100 {
		t.Errorf("percentiles = %+v", p)
	}
	if math.Abs(p.MeanMs-50.5) > 1e-9 {
		t.Errorf("mean = %v, want 50.5", p.MeanMs)
	}
	if got := Summarize(nil); got != (Percentiles{}) {
		t.Errorf("empty input = %+v, want zero value", got)
	}
	one := Summarize([]float64{0.007})
	if one.P50Ms != 7 || one.P99Ms != 7 {
		t.Errorf("single sample = %+v", one)
	}
}

func TestReportFinalize(t *testing.T) {
	r := &Report{
		Scenario:  Scenario{Rate: 10, DurationSec: 4},
		Offered:   40,
		Succeeded: 30,
	}
	r.Finalize([]float64{0.01, 0.02, 0.03})
	if r.OfferedRate != 10 {
		t.Errorf("offered rate = %v, want 10", r.OfferedRate)
	}
	if r.AchievedRate != 7.5 {
		t.Errorf("achieved rate = %v, want 7.5", r.AchievedRate)
	}
	if r.Latency.Samples != 3 {
		t.Errorf("latency samples = %d, want 3", r.Latency.Samples)
	}
}

func TestParseShape(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Shape
		err  string // substring of the refusal; "" = accepted
	}{
		{"4x4/b=8", Shape{Rows: 4, Cols: 4, Width: 8}, ""},
		{" 16x2/b=16 ", Shape{Rows: 16, Cols: 2, Width: 16}, ""},
		{"4x4", Shape{}, "missing /b=WIDTH"},
		{"4x4/b=8*3", Shape{}, "*WEIGHT suffix"},
		{"4x4/b=8,2x8/b=8", Shape{}, "one ROWSxCOLS/b=WIDTH entry"},
		{"0x4/b=8", Shape{}, "non-positive dimension"},
		{"4/b=8", Shape{}, "want ROWSxCOLS"},
		{"4x4/b=wide", Shape{}, "bad width"},
	} {
		got, err := ParseShape(tc.in)
		switch {
		case tc.err == "" && (err != nil || got != tc.want):
			t.Errorf("ParseShape(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("ParseShape(%q) = %+v, %v; want an error naming %q", tc.in, got, err, tc.err)
		}
	}
}

// A metrics URL that cannot be scraped fails the run with the scrape's
// cause, before the run (the port refuses) or after it (the endpoint
// answers once, then 503s), instead of leaving Report.Pool nil.
func TestRunNamesFailedPoolScrape(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String()
	ln.Close()

	var scrapes atomic.Int64
	reg := obs.NewRegistry()
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if scrapes.Add(1) > 1 {
			http.Error(w, "gone", http.StatusServiceUnavailable)
			return
		}
		reg.SnapshotJSON(w)
	}))
	defer flaky.Close()

	for _, tc := range []struct{ url, want string }{
		{refused, "before the run: load: scraping " + refused + "/histz"},
		{flaky.URL, "after the run: load: scraping " + flaky.URL + "/histz: status 503"},
	} {
		r, err := Run(Config{
			Target:     "127.0.0.1:1",
			Scenario:   Scenario{Rate: 1, Process: Uniform, DurationSec: 1, Shape: testShape},
			MetricsURL: tc.url,
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("metrics %s: report %+v, err = %v; want an error containing %q", tc.url, r, err, tc.want)
		}
	}
}

// A shape the target's model cannot serve is refused before anything is
// dialed: the target address here accepts nothing.
func TestRunRefusesShapeContradictingMatrix(t *testing.T) {
	model := [][]int64{{1, 2, 3, 4}, {5, 6, 7, 8}}
	for _, sh := range []Shape{{Rows: 4, Cols: 4, Width: 8}, {Rows: 2, Cols: 8, Width: 8}} {
		_, err := Run(Config{
			Target:   "127.0.0.1:1",
			Scenario: Scenario{Rate: 100, Process: Uniform, DurationSec: 1, Shape: sh},
			Matrix:   model,
		})
		if err == nil || !strings.Contains(err.Error(), "2x4 model") {
			t.Errorf("shape %+v against a 2x4 model: err = %v, want a refusal naming both", sh, err)
		}
	}
}
