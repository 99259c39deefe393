// Package benchgrid defines the repository's canonical benchmark
// artifact: a versioned JSON grid of online-path measurements over
// OT mode × matrix size × bit-width × precompute on/off, each cell
// carrying latency percentiles, garbling throughput and allocation
// cost. `maxbench -grid` emits it, one `BENCH_PR<k>.json` per
// perf-touching PR is committed at the repo root, and
// `maxbench -compare` (and the CI bench-gate job) diff two grids under
// explicit tolerances — so every "faster" claim in this repository is
// a diffable number, not a commit-message anecdote.
//
// The schema is environment-stamped (go version, CPU count,
// GOMAXPROCS) because latency cells are only comparable on like
// hardware; cross-machine gates should widen the latency tolerance or
// lean on the machine-independent cells (bytes/op, allocs/op).
package benchgrid

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// SchemaVersion is the current grid schema. Readers reject grids
// written under a different version instead of mis-diffing them.
const SchemaVersion = 1

// Env stamps the machine a grid was measured on. Latency and
// throughput cells are only meaningfully comparable between grids with
// like environments.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentEnv stamps the running process's environment.
func CurrentEnv() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Cell is one measured grid point: a fixed workload shape and serving
// mode, with its latency distribution and per-request cost.
type Cell struct {
	// OT is the label-transfer mode wire name ("per-round" or
	// "batched").
	OT string `json:"ot"`
	// Rows, Cols and Width fix the matvec workload shape.
	Rows  int `json:"rows"`
	Cols  int `json:"cols"`
	Width int `json:"width"`
	// Precompute marks the warm-pool (offline/online split) serving
	// mode; false is inline garbling.
	Precompute bool `json:"precompute"`
	// Requests is the sample count behind the percentiles.
	Requests int `json:"requests"`

	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MeanMs float64 `json:"mean_ms"`
	// TablesPerSec is garbled-table streaming throughput over the
	// online (clocked) time of the pass.
	TablesPerSec float64 `json:"tables_per_sec"`
	// BytesPerOp and AllocsPerOp are runtime.MemStats deltas across the
	// clocked region divided by Requests — heap cost per request,
	// machine-independent to first order.
	BytesPerOp  uint64 `json:"bytes_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
	// Degraded marks a cell whose measurement did not run under its
	// nominal serving mode — a precompute cell whose pool missed
	// mid-run and fell back to inline garbling. Its numbers describe a
	// mixed regime, so Compare skips the cell rather than gating on it.
	Degraded bool `json:"degraded,omitempty"`
}

// Key identifies a cell's grid point — the match key Compare joins on.
func (c Cell) Key() string {
	return fmt.Sprintf("ot=%s/%dx%d/b=%d/precompute=%t", c.OT, c.Rows, c.Cols, c.Width, c.Precompute)
}

// Grid is the full artifact.
type Grid struct {
	SchemaVersion int    `json:"schema_version"`
	CreatedBy     string `json:"created_by,omitempty"`
	Env           Env    `json:"env"`
	Cells         []Cell `json:"cells"`
}

// New returns an empty grid stamped with the current schema version
// and environment.
func New(createdBy string) *Grid {
	return &Grid{SchemaVersion: SchemaVersion, CreatedBy: createdBy, Env: CurrentEnv()}
}

// Validate checks the structural invariants a written grid must hold:
// supported schema version, at least one cell, positive sample counts,
// no duplicate grid points, and ordered percentiles per cell.
func (g *Grid) Validate() error {
	if g == nil {
		return fmt.Errorf("benchgrid: nil grid")
	}
	if g.SchemaVersion != SchemaVersion {
		return fmt.Errorf("benchgrid: schema version %d, this reader understands %d", g.SchemaVersion, SchemaVersion)
	}
	if len(g.Cells) == 0 {
		return fmt.Errorf("benchgrid: grid has no cells")
	}
	seen := make(map[string]bool, len(g.Cells))
	for i, c := range g.Cells {
		k := c.Key()
		if seen[k] {
			return fmt.Errorf("benchgrid: duplicate cell %s", k)
		}
		seen[k] = true
		if c.Requests <= 0 {
			return fmt.Errorf("benchgrid: cell %d (%s) has %d requests", i, k, c.Requests)
		}
		if c.P50Ms > c.P95Ms || c.P95Ms > c.P99Ms {
			return fmt.Errorf("benchgrid: cell %s percentiles not ordered (p50=%g p95=%g p99=%g)",
				k, c.P50Ms, c.P95Ms, c.P99Ms)
		}
	}
	return nil
}

// Cell returns the cell with the given key.
func (g *Grid) Cell(key string) (Cell, bool) {
	if g == nil {
		return Cell{}, false
	}
	for _, c := range g.Cells {
		if c.Key() == key {
			return c, true
		}
	}
	return Cell{}, false
}

// Encode writes the grid as indented JSON.
func (g *Grid) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// Decode reads and validates a grid.
func Decode(r io.Reader) (*Grid, error) {
	var g Grid
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("benchgrid: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// Load reads and validates a grid file.
func Load(path string) (*Grid, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchgrid: %w", err)
	}
	defer f.Close()
	g, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("benchgrid: %s: %w", path, err)
	}
	return g, nil
}

// Tolerances bound how much worse a new grid may measure before
// Compare flags a regression. Fractions are relative slack (0.25
// allows +25%); a negative fraction disables that metric family
// entirely (e.g. latency on cross-machine comparisons).
type Tolerances struct {
	// Latency is the allowed fractional increase on p50/p95/p99/mean.
	Latency float64 `json:"latency"`
	// LatencySlackMs is an absolute grace added on top of the
	// fractional latency bound, so sub-millisecond cells don't flap on
	// scheduler jitter.
	LatencySlackMs float64 `json:"latency_slack_ms"`
	// Throughput is the allowed fractional decrease on tables/sec.
	Throughput float64 `json:"throughput"`
	// Bytes and Allocs are the allowed fractional increases on
	// bytes/op and allocs/op.
	Bytes  float64 `json:"bytes"`
	Allocs float64 `json:"allocs"`
	// RequireAll makes a baseline cell missing from the new grid a
	// regression. Off by default so a reduced CI grid can be gated
	// against a full committed baseline.
	RequireAll bool `json:"require_all"`
}

// DefaultTolerances is the same-machine policy: 25% on timing-derived
// cells (they jitter), 10% on allocation cells (they barely do).
func DefaultTolerances() Tolerances {
	return Tolerances{Latency: 0.25, LatencySlackMs: 0.5, Throughput: 0.25, Bytes: 0.10, Allocs: 0.10}
}

// Regression is one tolerance breach: the metric of one cell that
// measured worse than the baseline allows.
type Regression struct {
	Key    string  `json:"key"`
	Metric string  `json:"metric"`
	Old    float64 `json:"old"`
	New    float64 `json:"new"`
	// Limit is the worst value the tolerance permitted.
	Limit float64 `json:"limit"`
}

func (r Regression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s: cell missing from new grid", r.Key)
	}
	return fmt.Sprintf("%s: %s %.4g -> %.4g (limit %.4g)", r.Key, r.Metric, r.Old, r.New, r.Limit)
}

// Compare diffs cur against base cell-by-cell (joined on Cell.Key) and
// returns every tolerance breach, ordered by cell key. Cells present
// only in cur are ignored (a grown grid is not a regression); cells
// present only in base are ignored unless tol.RequireAll. An empty
// result means the new grid is within tolerance everywhere.
func Compare(base, cur *Grid, tol Tolerances) []Regression {
	if base == nil || cur == nil {
		return nil
	}
	byKey := make(map[string]Cell, len(cur.Cells))
	for _, c := range cur.Cells {
		byKey[c.Key()] = c
	}
	keys := make([]string, 0, len(base.Cells))
	cells := make(map[string]Cell, len(base.Cells))
	for _, c := range base.Cells {
		keys = append(keys, c.Key())
		cells[c.Key()] = c
	}
	sort.Strings(keys)

	var regs []Regression
	for _, k := range keys {
		o := cells[k]
		n, ok := byKey[k]
		if !ok {
			if tol.RequireAll {
				regs = append(regs, Regression{Key: k, Metric: "missing"})
			}
			continue
		}
		// A degraded measurement (either side) describes a mixed serving
		// regime; diffing it against a clean one would flag phantom
		// regressions — or hide real ones.
		if o.Degraded || n.Degraded {
			continue
		}
		higher := func(metric string, oldV, newV, frac, slack float64) {
			if frac < 0 || oldV <= 0 {
				return
			}
			limit := oldV*(1+frac) + slack
			if newV > limit {
				regs = append(regs, Regression{Key: k, Metric: metric, Old: oldV, New: newV, Limit: limit})
			}
		}
		higher("p50_ms", o.P50Ms, n.P50Ms, tol.Latency, tol.LatencySlackMs)
		higher("p95_ms", o.P95Ms, n.P95Ms, tol.Latency, tol.LatencySlackMs)
		higher("p99_ms", o.P99Ms, n.P99Ms, tol.Latency, tol.LatencySlackMs)
		higher("mean_ms", o.MeanMs, n.MeanMs, tol.Latency, tol.LatencySlackMs)
		higher("bytes_per_op", float64(o.BytesPerOp), float64(n.BytesPerOp), tol.Bytes, 0)
		higher("allocs_per_op", float64(o.AllocsPerOp), float64(n.AllocsPerOp), tol.Allocs, 0)
		if tol.Throughput >= 0 && o.TablesPerSec > 0 {
			limit := o.TablesPerSec * (1 - tol.Throughput)
			if n.TablesPerSec < limit {
				regs = append(regs, Regression{Key: k, Metric: "tables_per_sec",
					Old: o.TablesPerSec, New: n.TablesPerSec, Limit: limit})
			}
		}
	}
	return regs
}
