// Command maxtop is a live terminal view over a running maxd: it polls
// the daemon's /metrics endpoint (see maxd -metrics-addr) and renders
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
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"maxelerator/internal/gateway"
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
	if err := watch(os.Stdout, "http://"+*addr+"/metrics", *interval, n, !*once && n != 1); err != nil {
		fmt.Fprintln(os.Stderr, "maxtop:", err)
		os.Exit(1)
	}
}

// sample is one exposition line: a metric name, its label set and the
// parsed value.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// label returns a label value or "".
func (s sample) label(key string) string { return s.labels[key] }

// snapshot is one parsed /metrics scrape.
type snapshot struct {
	samples []sample
	when    time.Time
}

// get returns the value of the sample matching name and every given
// key=value pair (pairs are alternating key, value strings).
func (s *snapshot) get(name string, pairs ...string) (float64, bool) {
next:
	for _, sm := range s.samples {
		if sm.name != name {
			continue
		}
		for i := 0; i+1 < len(pairs); i += 2 {
			if sm.labels[pairs[i]] != pairs[i+1] {
				continue next
			}
		}
		return sm.value, true
	}
	return 0, false
}

// val is get with a zero default.
func (s *snapshot) val(name string, pairs ...string) float64 {
	v, _ := s.get(name, pairs...)
	return v
}

// sumBy sums all samples of a family grouped by one label, returned in
// label-sorted order (numeric labels sort numerically).
func (s *snapshot) sumBy(name, key string) []struct {
	Label string
	Value float64
} {
	acc := map[string]float64{}
	for _, sm := range s.samples {
		if sm.name == name {
			acc[sm.label(key)] += sm.value
		}
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

// parseMetrics reads a Prometheus text-format exposition. Unparsable
// lines are skipped rather than fatal: maxtop must keep rendering even
// if the daemon grows metrics this binary does not know.
func parseMetrics(r io.Reader) (*snapshot, error) {
	snap := &snapshot{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		key := line[:sp]
		sm := sample{labels: map[string]string{}, value: v}
		if open := strings.IndexByte(key, '{'); open >= 0 && strings.HasSuffix(key, "}") {
			sm.name = key[:open]
			for _, pair := range splitLabels(key[open+1 : len(key)-1]) {
				eq := strings.IndexByte(pair, '=')
				if eq < 0 {
					continue
				}
				val := pair[eq+1:]
				val = strings.TrimPrefix(val, `"`)
				val = strings.TrimSuffix(val, `"`)
				sm.labels[pair[:eq]] = val
			}
		} else {
			sm.name = key
		}
		snap.samples = append(snap.samples, sm)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return snap, nil
}

// splitLabels splits `a="x",b="y"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	var quoted bool
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// histQuantile reconstructs a quantile from a scraped histogram's
// cumulative buckets (name_bucket{le="..."} samples). Returns false
// when the histogram is absent, has no samples, or the quantile lands
// in the +Inf bucket — in all three cases the buckets support no
// honest finite estimate, so callers render a dash.
func histQuantile(s *snapshot, name string, q float64) (float64, bool) {
	type bucket struct {
		upper float64
		cum   uint64
	}
	var buckets []bucket
	for _, sm := range s.samples {
		if sm.name != name+"_bucket" {
			continue
		}
		le := sm.label("le")
		var upper float64
		if le == "+Inf" {
			upper = math.Inf(1)
		} else {
			v, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			upper = v
		}
		buckets = append(buckets, bucket{upper, uint64(sm.value)})
	}
	if len(buckets) == 0 {
		return 0, false
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].upper < buckets[j].upper })
	uppers := make([]float64, len(buckets))
	cum := make([]uint64, len(buckets))
	for i, b := range buckets {
		uppers[i] = b.upper
		cum[i] = b.cum
	}
	return obs.BucketQuantileOK(uppers, cum, q)
}

// scrape fetches and parses one /metrics exposition.
func scrape(url string) (*snapshot, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	snap, err := parseMetrics(resp.Body)
	if err != nil {
		return nil, err
	}
	snap.when = time.Now()
	return snap, nil
}

// fetchFleet reads a maxgw /fleetz snapshot; any failure (endpoint
// absent, daemon is a plain maxd) degrades to nil and the table is
// simply not rendered.
func fetchFleet(url string) []gateway.BackendStatus {
	resp, err := http.Get(url)
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
		hinted, unhinted, cur.val("gw_peek_errors_total"), sumAll(cur, "gw_membership_changes_total"))
	if miss := sumAll(cur, "gw_hint_misses_total"); miss > 0 {
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

// sumAll sums every sample of a family across all label sets.
func sumAll(s *snapshot, name string) float64 {
	var v float64
	for _, sm := range s.samples {
		if sm.name == name {
			v += sm.value
		}
	}
	return v
}

// render draws one frame. prev may be nil (first frame: totals only,
// no rates). fleet is the optional maxgw /fleetz snapshot.
func render(w io.Writer, url string, prev, cur *snapshot, fleet []gateway.BackendStatus) {
	fmt.Fprintf(w, "maxtop — %s — %s\n\n", url, cur.when.Format("15:04:05"))

	errs := 0.0
	sessions := 0.0
	for _, sm := range cur.samples {
		switch sm.name {
		case "sessions_total":
			sessions += sm.value
		case "session_errors_total":
			errs += sm.value
		}
	}
	fmt.Fprintf(w, "sessions    total %.0f   active %.0f   errors %.0f   connections %.0f\n",
		sessions, cur.val("sessions_active"), errs, cur.val("connections_total"))

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
	// is reconstructed from the scraped histogram buckets with the same
	// interpolation obs.Histogram.Quantile uses server-side.
	if _, ok := cur.get("runtime_goroutines"); ok {
		gcLine := fmt.Sprintf("runtime     goroutines %.0f   heap inuse %s   idle %s   gc cycles %.0f",
			cur.val("runtime_goroutines"),
			report.Bytes(uint64(cur.val("runtime_heap_inuse_bytes"))),
			report.Bytes(uint64(cur.val("runtime_heap_idle_bytes"))),
			cur.val("runtime_gc_cycles_total"))
		if p99, ok := histQuantile(cur, "runtime_gc_pause_seconds", 0.99); ok {
			gcLine += fmt.Sprintf("   gc pause p99 %s", report.Dur(time.Duration(p99*float64(time.Second))))
		} else {
			gcLine += "   gc pause p99 —"
		}
		fmt.Fprintln(w, gcLine)
	}

	lat := func(name string, pairs ...string) string {
		c := cur.val(name+"_count", pairs...)
		if c == 0 {
			return "—"
		}
		avg := cur.val(name+"_sum", pairs...) / c
		return fmt.Sprintf("avg %s (n=%.0f)", report.Dur(time.Duration(avg*float64(time.Second))), c)
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
			fleet = fetchFleet(strings.TrimSuffix(url, "/metrics") + "/fleetz")
		}
		if clear {
			fmt.Fprint(w, "\033[2J\033[H")
		}
		render(w, url, prev, cur, fleet)
		prev = cur
	}
	return nil
}
