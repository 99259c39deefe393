// Command maxtop is a live terminal view over a running maxd: it polls
// the daemon's /histz endpoint (see maxd -metrics-addr) — the JSON
// obs.Snapshot that maxload and maxcap read too — and renders
// session, garbling-throughput, memory-system, latency and Go-runtime
// figures (goroutines, heap occupancy, GC pause p99), plus a per-core
// table/idle breakdown of the MAC unit.
//
// Usage:
//
//	maxtop -addr 127.0.0.1:7701              # refresh every 2s
//	maxtop -addr 127.0.0.1:7701 -once        # single snapshot
//	maxtop -addr 127.0.0.1:7701 -interval 1s -count 10
//
// Rates (MAC/s, wire bytes/s) are derived from the deltas between two
// consecutive scrapes, so the first frame of a watch shows totals only.
//
// Pointed at a maxgw metrics address instead of a maxd one, maxtop
// renders the fleet panel: routable backends, session routing, failover
// and retry-budget counts from the gw_* metric families, plus a
// per-backend table (health, breaker state, in-flight sessions,
// handshake latency, advertised shapes) scraped from the gateway's
// /fleetz endpoint and closed by an aggregated fleet row — summed
// counters with a load-weighted latency figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"maxelerator/internal/gateway"
	"maxelerator/internal/load"
	"maxelerator/internal/obs"
	"maxelerator/internal/report"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7701", "maxd metrics address (host:port)")
	interval := flag.Duration("interval", 2*time.Second, "poll period")
	count := flag.Int("count", 0, "number of frames to render (0 = until interrupted)")
	once := flag.Bool("once", false, "render a single snapshot and exit")
	flag.Parse()

	n := *count
	if *once {
		n = 1
	}
	if err := watch(os.Stdout, "http://"+*addr+"/histz", *interval, n, !*once && n != 1); err != nil {
		fmt.Fprintln(os.Stderr, "maxtop:", err)
		os.Exit(1)
	}
}

// sample is one counter or gauge child: its label set and its value.
// maxtop reads both kinds alike, as floats.
type sample struct {
	labels map[string]string
	value  float64
}

// snapshot is one decoded /histz scrape and when it was taken.
type snapshot struct {
	*obs.Snapshot
	when time.Time
}

// children returns every counter and gauge child of name.
func (s *snapshot) children(name string) []sample {
	var out []sample
	for _, c := range s.Counters {
		if c.Name == name {
			out = append(out, sample{c.Labels, float64(c.Value)})
		}
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			out = append(out, sample{g.Labels, float64(g.Value)})
		}
	}
	return out
}

// get sums the children of name that carry every given key=value pair
// (pairs are alternating key, value strings); false when none does.
func (s *snapshot) get(name string, pairs ...string) (float64, bool) {
	var v float64
	found := false
next:
	for _, sm := range s.children(name) {
		for i := 0; i+1 < len(pairs); i += 2 {
			if sm.labels[pairs[i]] != pairs[i+1] {
				continue next
			}
		}
		v += sm.value
		found = true
	}
	return v, found
}

// val is get with a zero default.
func (s *snapshot) val(name string, pairs ...string) float64 {
	v, _ := s.get(name, pairs...)
	return v
}

// sumBy sums all children of a family grouped by one label, returned in
// label-sorted order (numeric labels sort numerically).
func (s *snapshot) sumBy(name, key string) []struct {
	Label string
	Value float64
} {
	acc := map[string]float64{}
	for _, sm := range s.children(name) {
		acc[sm.labels[key]] += sm.value
	}
	out := make([]struct {
		Label string
		Value float64
	}, 0, len(acc))
	for l, v := range acc {
		out = append(out, struct {
			Label string
			Value float64
		}{l, v})
	}
	sort.Slice(out, func(i, j int) bool {
		a, aerr := strconv.Atoi(out[i].Label)
		b, berr := strconv.Atoi(out[j].Label)
		if aerr == nil && berr == nil {
			return a < b
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// scrape fetches and decodes one /histz snapshot, under
// load.FetchSnapshot's timeout.
func scrape(url string) (*snapshot, error) {
	snap, err := load.FetchSnapshot(url)
	if err != nil {
		return nil, err
	}
	return &snapshot{Snapshot: snap, when: time.Now()}, nil
}

// fetchFleet reads a maxgw /fleetz snapshot; any failure (endpoint
// absent, daemon is a plain maxd, no answer in time) degrades to nil
// and the table is simply not rendered.
func fetchFleet(url string) []gateway.BackendStatus {
	// Bounded like scrape's fetch, so a gateway that stops answering
	// cannot hang the view.
	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var fleet struct {
		Backends []gateway.BackendStatus `json:"backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fleet); err != nil {
		return nil
	}
	return fleet.Backends
}

// renderFleet draws the maxgw panel: routable backends, routing and
// resilience counters from the gw_* families, and the per-backend
// /fleetz table — closed by an aggregated fleet row (summed counters,
// load-weighted latency) — when the snapshot came back.
func renderFleet(w io.Writer, cur *snapshot, fleet []gateway.BackendStatus) {
	total, ok := cur.get("gw_backends_total")
	if !ok {
		return
	}
	var failovers float64
	var parts []string
	for _, e := range cur.sumBy("gw_failovers_total", "reason") {
		failovers += e.Value
		parts = append(parts, fmt.Sprintf("%s %.0f", e.Label, e.Value))
	}
	line := fmt.Sprintf("fleet       backends %.0f/%.0f healthy   active %.0f   failovers %.0f   shed %.0f",
		cur.val("gw_backends_healthy"), total, cur.val("gw_sessions_active"),
		failovers, cur.val("gw_shed_total"))
	if len(parts) > 0 {
		line += " (" + strings.Join(parts, ", ") + ")"
	}
	// Resilience figures only render when the gateway exports them, so
	// older gateways keep their unchanged panel.
	if milli, ok := cur.get("gw_retry_budget_tokens_milli"); ok {
		line += fmt.Sprintf("   budget %.1f tokens", milli/1000)
		if denied := cur.val("gw_retry_budget_exhausted_total"); denied > 0 {
			line += fmt.Sprintf(" (%.0f denied)", denied)
		}
	}
	fmt.Fprintln(w, line)

	hinted := cur.val("gw_peeks_total", "result", "hint")
	unhinted := cur.val("gw_peeks_total", "result", "none") + cur.val("gw_peeks_total", "result", "other")
	routing := fmt.Sprintf("routing     hinted %.0f   unhinted %.0f   peek errors %.0f   membership changes %.0f",
		hinted, unhinted, cur.val("gw_peek_errors_total"), cur.val("gw_membership_changes_total"))
	if miss := cur.val("gw_hint_misses_total"); miss > 0 {
		routing += fmt.Sprintf("   hint misses %.0f", miss)
	}
	fmt.Fprintln(w, routing)

	if len(fleet) == 0 {
		return
	}
	sessionsBy := map[string]float64{}
	for _, e := range cur.sumBy("gw_sessions_total", "backend") {
		sessionsBy[e.Label] = e.Value
	}
	t := report.NewTable("\nper-backend", "backend", "status", "breaker", "active", "sessions", "latency", "warm shapes")
	var sumActive int64
	var sumSessions float64
	var weightedLat, latWeight float64
	healthyN := 0
	for _, b := range fleet {
		status := b.Status
		if b.Healthy {
			healthyN++
		} else {
			status += " (ejected)"
		}
		breaker := b.Breaker
		if breaker == "" {
			breaker = "—"
		}
		lat := "—"
		if b.LatencyEWMAMs > 0 {
			lat = fmt.Sprintf("%.1fms", b.LatencyEWMAMs)
			if b.Ejected {
				lat += " (slow)"
			}
			// Load-weighted: a backend carrying most of the traffic should
			// dominate the fleet figure; idle backends weigh in by their
			// lifetime share, and a never-loaded one counts once.
			wgt := float64(b.Active)
			if wgt <= 0 {
				wgt = sessionsBy[b.Addr]
			}
			if wgt <= 0 {
				wgt = 1
			}
			weightedLat += wgt * b.LatencyEWMAMs
			latWeight += wgt
		}
		shapes := strings.Join(b.Shapes, " ")
		if shapes == "" {
			shapes = "—"
		}
		t.AddRow(b.Addr, status, breaker, fmt.Sprintf("%d", b.Active),
			fmt.Sprintf("%.0f", sessionsBy[b.Addr]), lat, shapes)
		sumActive += b.Active
		sumSessions += sessionsBy[b.Addr]
	}
	fleetLat := "—"
	if latWeight > 0 {
		fleetLat = fmt.Sprintf("%.1fms", weightedLat/latWeight)
	}
	t.AddRow("ALL", fmt.Sprintf("%d/%d up", healthyN, len(fleet)), "",
		fmt.Sprintf("%d", sumActive), fmt.Sprintf("%.0f", sumSessions), fleetLat, "")
	fmt.Fprint(w, t.String())
}

// render draws one frame. prev may be nil (first frame: totals only,
// no rates). fleet is the optional maxgw /fleetz snapshot.
func render(w io.Writer, url string, prev, cur *snapshot, fleet []gateway.BackendStatus) {
	fmt.Fprintf(w, "maxtop — %s — %s\n\n", url, cur.when.Format("15:04:05"))

	fmt.Fprintf(w, "sessions    total %.0f   active %.0f   errors %.0f   connections %.0f\n",
		cur.val("sessions_total"), cur.val("sessions_active"), cur.val("session_errors_total"), cur.val("connections_total"))

	line := fmt.Sprintf("garbling    macs %.0f   tables %.0f   table bytes %s",
		cur.val("macs_total"), cur.val("tables_garbled_total"),
		report.Bytes(uint64(cur.val("table_bytes_total"))))
	if prev != nil {
		if dt := cur.when.Sub(prev.when).Seconds(); dt > 0 {
			line += fmt.Sprintf("   rate %.1f MAC/s", (cur.val("macs_total")-prev.val("macs_total"))/dt)
		}
	}
	fmt.Fprintln(w, line)

	traceCycles := cur.val("trace_cycles_total")
	stallPct := 0.0
	if traceCycles > 0 {
		stallPct = 100 * cur.val("stall_cycles_total") / traceCycles
	}
	fmt.Fprintf(w, "memory      stall %.1f%%   peak %s   pcie drained %s\n",
		stallPct,
		report.Bytes(uint64(cur.val("peak_memory_bytes"))),
		report.Bytes(uint64(cur.val("pcie_drained_bytes_total"))))

	wireLine := fmt.Sprintf("wire        in %s   out %s",
		report.Bytes(uint64(cur.val("wire_bytes_in_total"))),
		report.Bytes(uint64(cur.val("wire_bytes_out_total"))))
	if prev != nil {
		if dt := cur.when.Sub(prev.when).Seconds(); dt > 0 {
			wireLine += fmt.Sprintf("   rate %s/s out",
				report.Bytes(uint64((cur.val("wire_bytes_out_total")-prev.val("wire_bytes_out_total"))/dt)))
		}
	}
	fmt.Fprintln(w, wireLine)

	// Runtime panel: only rendered once the daemon exposes the Go
	// runtime collector (maxd always enables it with -metrics-addr, but
	// older daemons and partial scrapes may lack it). The GC pause p99
	// is dashed whenever the buckets support no honest finite estimate:
	// no samples, or the quantile lands in the +Inf bucket.
	if _, ok := cur.get("runtime_goroutines"); ok {
		gcLine := fmt.Sprintf("runtime     goroutines %.0f   heap inuse %s   idle %s   gc cycles %.0f",
			cur.val("runtime_goroutines"),
			report.Bytes(uint64(cur.val("runtime_heap_inuse_bytes"))),
			report.Bytes(uint64(cur.val("runtime_heap_idle_bytes"))),
			cur.val("runtime_gc_cycles_total"))
		pauses, _ := cur.Histogram("runtime_gc_pause_seconds", nil)
		if p99, ok := pauses.Quantile(0.99); ok {
			gcLine += fmt.Sprintf("   gc pause p99 %s", report.Dur(time.Duration(p99*float64(time.Second))))
		} else {
			gcLine += "   gc pause p99 —"
		}
		fmt.Fprintln(w, gcLine)
	}

	lat := func(name string) string {
		h, _ := cur.Histogram(name, nil)
		if h.Count == 0 {
			return "—"
		}
		return fmt.Sprintf("avg %s (n=%d)", report.Dur(time.Duration(h.Mean()*float64(time.Second))), h.Count)
	}
	fmt.Fprintf(w, "latency     ot_setup %s   session %s\n", lat("ot_setup_seconds"), lat("session_seconds"))

	// Precompute panel: only rendered once the daemon exposes the
	// offline/online split (maxd -precompute).
	hits := cur.sumBy("precompute_hits_total", "shape")
	misses := cur.sumBy("precompute_misses_total", "shape")
	depths := cur.sumBy("precompute_pool_depth", "shape")
	if len(hits) > 0 || len(misses) > 0 || len(depths) > 0 {
		missBy := map[string]float64{}
		var hitTotal, missTotal float64
		for _, e := range misses {
			missBy[e.Label] = e.Value
			missTotal += e.Value
		}
		hitBy := map[string]float64{}
		for _, e := range hits {
			hitBy[e.Label] = e.Value
			hitTotal += e.Value
		}
		ratio := func(h, m float64) string {
			if h+m == 0 {
				return "—"
			}
			return fmt.Sprintf("%.0f%%", 100*h/(h+m))
		}
		fmt.Fprintf(w, "precompute  hits %.0f   misses %.0f   hit ratio %s\n",
			hitTotal, missTotal, ratio(hitTotal, missTotal))
		shapes := map[string]bool{}
		for _, e := range depths {
			shapes[e.Label] = true
		}
		for l := range hitBy {
			shapes[l] = true
		}
		for l := range missBy {
			shapes[l] = true
		}
		names := make([]string, 0, len(shapes))
		for l := range shapes {
			names = append(names, l)
		}
		sort.Strings(names)
		depthBy := map[string]float64{}
		for _, e := range depths {
			depthBy[e.Label] = e.Value
		}
		t := report.NewTable("\nper-shape", "shape", "depth", "hits", "hit ratio")
		for _, l := range names {
			t.AddRow(l, fmt.Sprintf("%.0f", depthBy[l]),
				fmt.Sprintf("%.0f", hitBy[l]), ratio(hitBy[l], missBy[l]))
		}
		fmt.Fprint(w, t.String())
	}

	renderFleet(w, cur, fleet)

	cores := cur.sumBy("core_tables_total", "core")
	if len(cores) > 0 {
		idle := map[string]float64{}
		for _, e := range cur.sumBy("core_idle_slots_total", "core") {
			idle[e.Label] = e.Value
		}
		t := report.NewTable("\nper-core", "core", "tables", "idle slots")
		for _, e := range cores {
			t.AddRow(e.Label, fmt.Sprintf("%.0f", e.Value), fmt.Sprintf("%.0f", idle[e.Label]))
		}
		fmt.Fprint(w, t.String())
	}
}

// watch polls url every interval and renders n frames (n <= 0 means
// forever). When clear is set each frame redraws from the top-left
// like top(1).
func watch(w io.Writer, url string, interval time.Duration, n int, clear bool) error {
	var prev *snapshot
	for i := 0; n <= 0 || i < n; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		cur, err := scrape(url)
		if err != nil {
			return err
		}
		var fleet []gateway.BackendStatus
		if _, ok := cur.get("gw_backends_total"); ok {
			fleet = fetchFleet(strings.TrimSuffix(url, "/histz") + "/fleetz")
		}
		if clear {
			fmt.Fprint(w, "\033[2J\033[H")
		}
		render(w, url, prev, cur, fleet)
		prev = cur
	}
	return nil
}
