// Command maxgw is the garbler fleet's front door: a session-granular
// L4 router that sends each client session to a maxd backend
// advertising a pre-garbled pool for the session's request shape — the
// least loaded one.
//
// Usage:
//
//	maxgw -listen :7000 -backends 10.0.0.1:7700,10.0.0.2:7700
//	maxgw -listen :7000 \
//	    -backends 10.0.0.1:7700=http://10.0.0.1:7701,10.0.0.2:7700=http://10.0.0.2:7701 \
//	    -metrics-addr :7001
//
// Each -backends entry is ADDR or ADDR=HEALTHURL; with a health URL
// the gateway polls HEALTHURL/healthz every -probe-interval, and polls
// HEALTHURL/shapez (on every maxd metrics address) for the one model
// shape that backend serves.
//
// Membership is breaker-driven: -eject-after consecutive failures
// (probe verdicts and routing-time handshake results feed the same
// per-backend circuit breaker) open the breaker and the backend stops
// being routed to; the next successful probe or handshake readmits it.
// A backend that is out is offered to one session, as its last
// candidate, once a -probe-interval has passed without a failure, so a
// backend without a health URL is readmitted by traffic and a dead
// fleet is shed without being dialed.
// A backend whose handshake-latency EWMA exceeds -outlier-k times the
// fleet median is demoted to last-resort candidate for
// -outlier-cooldown (slow-but-alive detection).
//
// Routing is one rule: among routable backends, those advertising the
// session's shape first, then the least loaded (fewest sessions in
// flight, then fewest served so far, so an idle fleet rotates through
// every backend's pool). Clients name their shape with a shape-hint
// preface (protocol.Client.WithShapeHint; maxcli -hint-rows). Clients
// that send no hint — every pre-gateway client — get the same order
// without the advertiser term after a -peek-timeout wait.
//
// Failover is pre-handshake only: a backend that refuses the dial or
// answers BUSY is abandoned before the client has seen a byte from it,
// and the session transparently moves to the next candidate (at most
// -max-failovers moves). When every candidate fails, the gateway sheds
// the session with its own BUSY frame, so clients' existing retry
// taxonomy applies unchanged.
//
// With -metrics-addr the gateway exposes its own observability
// surface: /metrics (gw_sessions_total{backend}, gw_failovers_total
// {reason}, fleet membership gauges, gw_membership_changes_total
// {backend,change}, gw_ejections_total{reason},
// gw_hint_misses_total{shape}), /healthz (ok with every backend
// routable, degraded with some, overloaded with none — answers 503)
// and /fleetz (per-backend JSON: health, in-flight sessions,
// handshake-latency EWMA, advertised shapes) for maxtop's fleet panel.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"maxelerator/internal/gateway"
	"maxelerator/internal/obs"
)

// gwConfig gathers every knob of one maxgw instance.
type gwConfig struct {
	listen          string
	backends        string
	metricsAddr     string
	peekTimeout     time.Duration
	probeInterval   time.Duration
	ejectAfter      int
	outlierK        float64
	outlierCooldown time.Duration
	maxFailovers    int
	drainTimeout    time.Duration
}

func main() {
	var gc gwConfig
	flag.StringVar(&gc.listen, "listen", "127.0.0.1:7000", "TCP listen address for client sessions")
	flag.StringVar(&gc.backends, "backends", "", "comma-separated backends, each ADDR or ADDR=HEALTHURL")
	flag.StringVar(&gc.metricsAddr, "metrics-addr", "", "HTTP address for /metrics, /healthz and /fleetz (empty disables)")
	flag.DurationVar(&gc.peekTimeout, "peek-timeout", 75*time.Millisecond, "wait for a client's shape-hint preface before routing unhinted")
	flag.DurationVar(&gc.probeInterval, "probe-interval", 2*time.Second, "backend health poll period")
	flag.IntVar(&gc.ejectAfter, "eject-after", 3, "consecutive probe or handshake failures before a backend's breaker opens (one success closes it)")
	flag.Float64Var(&gc.outlierK, "outlier-k", 3, "demote a backend whose handshake-latency EWMA exceeds this multiple of the fleet median")
	flag.DurationVar(&gc.outlierCooldown, "outlier-cooldown", 10*time.Second, "how long a latency-outlier demotion lasts")
	flag.IntVar(&gc.maxFailovers, "max-failovers", 2, "extra backends tried after the first candidate fails pre-handshake")
	flag.DurationVar(&gc.drainTimeout, "drain-timeout", 10*time.Second, "how long shutdown waits for relayed sessions before closing them")
	flag.Parse()

	if err := run(gc); err != nil {
		fmt.Fprintln(os.Stderr, "maxgw:", err)
		os.Exit(1)
	}
}

// parseBackends splits the -backends flag into gateway.Backend values.
func parseBackends(spec string) ([]gateway.Backend, error) {
	var out []gateway.Backend
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		addr, health, _ := strings.Cut(entry, "=")
		if addr == "" {
			return nil, fmt.Errorf("backend entry %q has an empty address", entry)
		}
		if health != "" && !strings.Contains(health, "://") {
			health = "http://" + health
		}
		out = append(out, gateway.Backend{Addr: addr, HealthURL: strings.TrimRight(health, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-backends is required (comma-separated ADDR or ADDR=HEALTHURL)")
	}
	return out, nil
}

func run(gc gwConfig) error {
	backends, err := parseBackends(gc.backends)
	if err != nil {
		return err
	}
	// gateway.Config reads zero as "unset, use the default"; the flags
	// already carry the defaults, so a zero here is the operator's and
	// must not silently turn into something else.
	for _, f := range []struct {
		name     string
		positive bool
		value    any
	}{
		{"max-failovers", gc.maxFailovers > 0, gc.maxFailovers},
		{"eject-after", gc.ejectAfter > 0, gc.ejectAfter},
		{"probe-interval", gc.probeInterval > 0, gc.probeInterval},
		{"peek-timeout", gc.peekTimeout > 0, gc.peekTimeout},
	} {
		if !f.positive {
			return fmt.Errorf("-%s must be positive, have %v", f.name, f.value)
		}
	}
	o := obs.New(0)
	gw, err := gateway.New(gateway.Config{
		Backends:        backends,
		PeekTimeout:     gc.peekTimeout,
		ProbeInterval:   gc.probeInterval,
		EjectAfter:      gc.ejectAfter,
		OutlierK:        gc.outlierK,
		OutlierCooldown: gc.outlierCooldown,
		MaxFailovers:    gc.maxFailovers,
		Obs:             o,
		Logf:            log.Printf,
	})
	if err != nil {
		return err
	}
	gw.Start()
	defer gw.Close()

	ln, err := net.Listen("tcp", gc.listen)
	if err != nil {
		return err
	}
	defer ln.Close()
	log.Printf("maxgw: routing %d backends on %s", len(backends), ln.Addr())

	var httpSrv *http.Server
	if gc.metricsAddr != "" {
		mln, err := net.Listen("tcp", gc.metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		o.EnableRuntimeMetrics()
		httpSrv = &http.Server{Handler: fleetHandler(o, gw)}
		go httpSrv.Serve(mln)
		defer httpSrv.Close()
		log.Printf("maxgw: observability on http://%s (/metrics /healthz /fleetz)", mln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		ln.Close()
	}()

	err = gw.Serve(ln)
	if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
		// Mirror maxd's shutdown: the listener is already closed, so no
		// new session can arrive; relayed sessions get the drain window
		// to finish on their own, then a hard close with a short grace.
		log.Printf("maxgw: signal received, draining relayed sessions (deadline %s)", gc.drainTimeout)
		if gw.Drain(gc.drainTimeout) {
			log.Printf("maxgw: shutting down")
			return nil
		}
		log.Printf("maxgw: drain deadline %s expired, closing relayed sessions", gc.drainTimeout)
		gw.KillSessions()
		if !gw.Drain(5 * time.Second) {
			log.Printf("maxgw: sessions still in flight after close, exiting anyway")
		}
		log.Printf("maxgw: shutting down")
		return nil
	}
	return err
}

// fleetHandler mounts /fleetz (the per-backend state snapshot) over
// the standard obs surface.
func fleetHandler(o *obs.Obs, gw *gateway.Gateway) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleetz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{"backends": gw.Snapshot()})
	})
	mux.Handle("/", o.Handler())
	return mux
}
