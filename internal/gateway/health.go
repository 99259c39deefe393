package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/obs"
	"maxelerator/internal/resilience"
)

// Backend names one garbler daemon the gateway can route to.
type Backend struct {
	// Addr is the protocol listen address sessions are proxied to.
	Addr string
	// HealthURL is the base of the daemon's debug surface (its
	// -metrics-addr), e.g. "http://10.0.0.7:9090": the prober GETs
	// <HealthURL>/healthz for liveness and <HealthURL>/shapez for the
	// advertised precompute shapes. Empty disables probing — the
	// backend is assumed healthy forever.
	HealthURL string
}

// backendState is the gateway's live view of one backend: its breaker
// (fed by probes and handshake results), the last probe's verdict and
// advertised shapes, and the session counts route orders by.
type backendState struct {
	Backend

	// breaker owns membership: breaker.Routable() is the only record of
	// whether the backend is in the fleet.
	breaker *resilience.Breaker

	mu     sync.Mutex
	status string // last probe verdict: ok | degraded | overloaded | unreachable
	shapes map[string]struct{}

	active   atomic.Int64 // sessions currently relayed to this backend
	sessions atomic.Int64 // sessions ever committed to this backend
}

// advertises reports whether the backend's daemon announced a warm
// pool for the shape key.
func (b *backendState) advertises(key string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.shapes[key]
	return ok
}

// ProbeFunc asks one backend for its health verdict and advertised
// shapes. Implementations return the health string (obs.HealthOK,
// obs.HealthDegraded or obs.HealthOverloaded) or an error when the
// backend is unreachable. Tests inject deterministic probes; the
// default is httpProbe.
type ProbeFunc func(b Backend) (status string, shapes []string, err error)

// httpProbe is the production probe: GET <HealthURL>/healthz (the body
// is the verdict; a 503 carries "overloaded") and GET
// <HealthURL>/shapez for the advertised shape list. A missing /shapez
// (older daemons without -advertise) is not an error — the backend
// just advertises nothing.
func httpProbe(client *http.Client) ProbeFunc {
	return func(b Backend) (string, []string, error) {
		resp, err := client.Get(b.HealthURL + "/healthz")
		if err != nil {
			return "", nil, err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 256))
		resp.Body.Close()
		if err != nil {
			return "", nil, err
		}
		status := strings.TrimSpace(string(body))
		switch status {
		case obs.HealthOK, obs.HealthDegraded, obs.HealthOverloaded:
		default:
			return "", nil, fmt.Errorf("gateway: unrecognized health verdict %q", status)
		}
		return status, fetchShapes(client, b.HealthURL), nil
	}
}

// fetchShapes GETs the advertised shape list, tolerating every
// failure: shape advertisement is an optimization hint, never a
// health signal.
func fetchShapes(client *http.Client, base string) []string {
	resp, err := client.Get(base + "/shapez")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var payload struct {
		Shapes []string `json:"shapes"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&payload); err != nil {
		return nil
	}
	return payload.Shapes
}

// probeLoop polls every backend at the configured interval until the
// gateway closes. The first pass runs immediately so a fresh gateway
// converges on real health within one interval, not two.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	g.ProbeNow()
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.ProbeNow()
		}
	}
}

// ProbeNow runs one synchronous probe pass over every backend and
// feeds the verdicts into the circuit breakers:
//
//   - ok and degraded verdicts count as successes (a degraded daemon
//     is queueing, not rejecting — still better than shedding the
//     session here);
//   - overloaded verdicts and unreachable backends count as failures;
//     EjectAfter consecutive failures trip the breaker open and the
//     backend stops being routed to. Readmission is the breaker's
//     half-open trial: after the cooldown (doubling on every re-trip)
//     the next successful probe readmits — never sooner, however
//     healthy the probes look mid-cooldown.
//
// The pass also sweeps the latency ejector, so outlier demotions are
// re-evaluated on probe cadence.
//
// Exported so tests (and operators via a future admin surface) can
// force convergence without waiting out the interval.
func (g *Gateway) ProbeNow() {
	for _, b := range g.states {
		if b.HealthURL == "" || g.cfg.Probe == nil {
			continue
		}
		status, shapes, err := g.cfg.Probe(b.Backend)
		failed := err != nil || status == obs.HealthOverloaded
		b.mu.Lock()
		if err != nil {
			b.status = "unreachable"
		} else {
			b.status = status
		}
		if !failed {
			b.shapes = toSet(shapes)
		}
		b.mu.Unlock()
		b.breaker.Observe(!failed)
	}
	for _, addr := range g.ejector.Sweep() {
		g.reg.Counter(obs.MetricEjections, obs.HelpEjections,
			obs.L("backend", addr), obs.L("reason", "latency")).Inc()
		g.logf("gateway: latency outlier %s demoted to last-resort (EWMA beyond k×median)", addr)
	}
	g.publishMembership()
}

func toSet(ss []string) map[string]struct{} {
	set := make(map[string]struct{}, len(ss))
	for _, s := range ss {
		set[s] = struct{}{}
	}
	return set
}

// publishMembership refreshes the membership gauges after a probe
// pass.
func (g *Gateway) publishMembership() {
	for _, b := range g.states {
		var v int64
		if b.breaker.Routable() {
			v = 1
		}
		g.reg.Gauge("gw_backend_up", "backend fleet membership (1 = routable)",
			obs.L("backend", b.Addr)).Set(v)
	}
	g.reg.Gauge("gw_backends_healthy", "backends currently routable").Set(int64(g.routable()))
	g.reg.Gauge("gw_backends_total", "backends configured").Set(int64(len(g.states)))
}

// routable counts the backends whose breaker admits sessions.
func (g *Gateway) routable() int {
	n := 0
	for _, b := range g.states {
		if b.breaker.Routable() {
			n++
		}
	}
	return n
}

// healthVerdict is the gateway's own /healthz: routable fleet → ok,
// partial fleet → degraded, no routable backend → overloaded (the
// gateway is about to shed every session, which is what overloaded
// means).
func (g *Gateway) healthVerdict() string {
	switch n := g.routable(); {
	case n == 0:
		return obs.HealthOverloaded
	case n < len(g.states):
		return obs.HealthDegraded
	default:
		return obs.HealthOK
	}
}
