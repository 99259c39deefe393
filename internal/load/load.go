package load

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"maxelerator/internal/obs"
	"maxelerator/internal/protocol"
	"maxelerator/internal/wire"
)

// Config drives one live load run.
type Config struct {
	// Target is the TCP address of a maxd or maxgw instance.
	Target string
	// Scenario is the offered load.
	Scenario Scenario
	// Timeouts bound each client wire phase (default 10s/10s).
	Timeouts protocol.Timeouts
	// DialTimeout bounds the TCP connect (default 2s).
	DialTimeout time.Duration
	// MetricsURL, when set, is the target's observability base URL
	// (e.g. "http://127.0.0.1:7701"); the run scrapes /histz before and
	// after and reports the pool hit-rate from the counter deltas.
	MetricsURL string
	// Registry, when set, reads pool counters in-process instead of
	// scraping — the validation harness's path. Overrides MetricsURL.
	Registry *obs.Registry
	// Matrix, when set, is the model the target serves: every result is
	// checked against Matrix·y and a wrong one counts as Miscomputed,
	// not as a success, and Run refuses a Scenario.Shape of other
	// dimensions before dialing.
	Matrix [][]int64
	// Logf receives per-session diagnostics; nil discards them.
	Logf func(string, ...any)
}

// errMiscomputed marks a session that completed with a wrong result.
var errMiscomputed = errors.New("load: result differs from Matrix·y")

// Run executes the scenario against the live target and reports what
// happened. Open-loop: the arrival schedule is precomputed
// (ArrivalTimes) and paced by the wall clock, never slowed by slow
// responses; arrivals past MaxInflight are skipped, not blocked on.
func Run(cfg Config) (*Report, error) {
	arrivals, err := ArrivalTimes(cfg.Scenario)
	if err != nil {
		return nil, err
	}
	if cfg.Target == "" {
		return nil, fmt.Errorf("load: target address is required")
	}
	if sh := cfg.Scenario.Shape; len(cfg.Matrix) > 0 && (sh.Rows != len(cfg.Matrix) || sh.Cols != len(cfg.Matrix[0])) {
		return nil, fmt.Errorf("load: scenario shape %dx%d contradicts the %dx%d model the target serves",
			sh.Rows, sh.Cols, len(cfg.Matrix), len(cfg.Matrix[0]))
	}
	if cfg.Timeouts == (protocol.Timeouts{}) {
		cfg.Timeouts = protocol.Timeouts{Handshake: 10 * time.Second, IO: 10 * time.Second}
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	before, err := readPoolCounters(cfg)
	if err != nil {
		return nil, fmt.Errorf("load: pool counters before the run: %w", err)
	}

	var (
		skipped, succeeded, shed, failed, miscomputed atomic.Int64
		started                                       int
		mu                                            sync.Mutex
		latencies                                     []float64
		firstError                                    string
		wg                                            sync.WaitGroup
	)
	var sem chan struct{}
	if cfg.Scenario.MaxInflight > 0 {
		sem = make(chan struct{}, cfg.Scenario.MaxInflight)
	}

	start := time.Now()
	shape := cfg.Scenario.Shape.Hint()
	for i, at := range arrivals {
		// Pace to the schedule. A late wake-up does not slow later
		// arrivals: each sleeps relative to the shared run start.
		if d := time.Duration(at*float64(time.Second)) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				skipped.Add(1)
				continue
			}
		}
		started++
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if sem != nil {
				defer func() { <-sem }()
			}
			t0 := time.Now()
			err := oneSession(cfg, shape)
			switch {
			case err == nil:
				succeeded.Add(1)
				mu.Lock()
				latencies = append(latencies, time.Since(t0).Seconds())
				mu.Unlock()
			case isBusy(err):
				shed.Add(1)
			case errors.Is(err, errMiscomputed):
				logf("load: session %d (%s): %v", i, shape.Key(), err)
				miscomputed.Add(1)
			default:
				logf("load: session %d (%s): %v", i, shape.Key(), err)
				failed.Add(1)
				mu.Lock()
				if firstError == "" {
					firstError = err.Error()
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	r := &Report{
		Target:    cfg.Target,
		Scenario:  cfg.Scenario,
		Offered:   len(arrivals),
		Started:   started,
		Skipped:   int(skipped.Load()),
		Succeeded: int(succeeded.Load()),
		Shed:      int(shed.Load()),
		Failed:    int(failed.Load()),

		Miscomputed: int(miscomputed.Load()),
		FirstError:  firstError,
	}
	r.Finalize(latencies)
	after, err := readPoolCounters(cfg)
	if err != nil {
		return nil, fmt.Errorf("load: pool counters after the run: %w", err)
	}
	if after != nil {
		r.Pool = NewPoolStats(after.Hits-before.Hits, after.Misses-before.Misses)
	}
	return r, nil
}

// oneSession runs a single client session: dial, hint, one matvec of
// shape.Cols elements, clean close. The client vector is the fixed
// pattern j%16 − 8, so every run offers identical work.
func oneSession(cfg Config, shape protocol.ShapeHint) error {
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		return err
	}
	cli.WithTimeouts(cfg.Timeouts)
	cli.WithShapeHint(shape)
	nc, err := net.DialTimeout("tcp", cfg.Target, cfg.DialTimeout)
	if err != nil {
		return err
	}
	conn := wire.NewStreamConn(nc)
	defer conn.Close()
	cs, err := cli.Dial(conn)
	if err != nil {
		return err
	}
	y := make([]int64, shape.Cols)
	for j := range y {
		y[j] = int64(j%16 - 8)
	}
	out, err := cs.Do(y)
	if err != nil {
		return err
	}
	if err := cs.Close(); err != nil {
		return err
	}
	for i, row := range cfg.Matrix {
		want := int64(0)
		for j, a := range row {
			want += a * y[j]
		}
		if i >= len(out) || out[i] != want {
			return fmt.Errorf("%w: row %d of %v", errMiscomputed, i, out)
		}
	}
	return nil
}

func isBusy(err error) bool {
	var be *protocol.BusyError
	return errors.As(err, &be)
}

// readPoolCounters samples cumulative precompute hit/miss counters
// from whichever source the config provides; nil when none is
// configured (the report then omits pool stats). A configured scrape
// that fails is an error, not a missing section.
func readPoolCounters(cfg Config) (*PoolStats, error) {
	switch {
	case cfg.Registry != nil:
		return PoolFromSnapshot(cfg.Registry.Snapshot()), nil
	case cfg.MetricsURL != "":
		snap, err := FetchSnapshot(cfg.MetricsURL)
		if err != nil {
			return nil, err
		}
		return PoolFromSnapshot(snap), nil
	}
	return nil, nil
}
