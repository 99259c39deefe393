// Package core is the MAXelerator library facade: it binds the
// cycle-accurate accelerator simulator, the garbling engine, the
// fixed-point format of the case studies and the matrix substrate into
// the privacy-preserving linear-algebra operations the paper
// accelerates — dot products, matrix-vector products and quadratic
// forms — with hardware-model statistics for every run.
//
// The operations in this package run both protocol parties in one
// process (garble, transfer labels in memory, evaluate), which is the
// form the unit tests, examples and benchmarks use. Package protocol
// runs the same computation between two real endpoints over a
// connection with oblivious transfer.
package core

import (
	"fmt"
	"sync"

	"maxelerator/internal/fixed"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/sched"
)

// Config parameterises an accelerator; it is the simulator
// configuration re-exported as the public entry point.
type Config = maxsim.Config

// Stats is the hardware-model accounting of a run.
type Stats = maxsim.Stats

// Accelerator is a configured MAXelerator instance.
type Accelerator struct {
	sim *maxsim.Simulator
}

// New builds an accelerator.
func New(cfg Config) (*Accelerator, error) {
	sim, err := maxsim.New(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.AccWidth > 64 && cfg.AccWidth != 0 {
		return nil, fmt.Errorf("core: accumulator width %d exceeds the 64-bit decode limit", cfg.AccWidth)
	}
	return &Accelerator{sim: sim}, nil
}

// Simulator exposes the underlying cycle-accurate simulator.
func (a *Accelerator) Simulator() *maxsim.Simulator { return a.sim }

// Schedule exposes the FSM schedule of one MAC unit.
func (a *Accelerator) Schedule() *sched.Schedule { return a.sim.Schedule() }

// Config returns the resolved configuration.
func (a *Accelerator) Config() Config { return a.sim.Config() }

// SecureDotProduct computes ⟨x, y⟩ under the GC protocol: the
// accelerator garbles the M-round sequential MAC for the server-held
// vector x, and an in-process evaluator holding y evaluates the
// garbled stream. It returns the decoded accumulator and the
// hardware-model statistics of the garbling run.
func (a *Accelerator) SecureDotProduct(x, y []int64) (int64, Stats, error) {
	if len(x) != len(y) {
		return 0, Stats{}, fmt.Errorf("core: vector lengths %d and %d differ", len(x), len(y))
	}
	run, err := a.sim.GarbleDotProduct(x)
	if err != nil {
		return 0, Stats{}, err
	}
	cfg := a.sim.Config()
	v, err := maxsim.EvaluateDotProduct(cfg.Params, a.sim.Circuit(), run, y, cfg.Width, cfg.Signed)
	if err != nil {
		return 0, Stats{}, err
	}
	return v, run.Stats, nil
}

// SecureMatVec computes A·y for a server-held matrix A (rows of raw
// fixed-point values) and a client vector y. Each output element is an
// independent sequential-MAC chain; timing aggregates over the
// configured MAC units.
func (a *Accelerator) SecureMatVec(A [][]int64, y []int64) ([]int64, Stats, error) {
	if len(A) == 0 {
		return nil, Stats{}, fmt.Errorf("core: empty matrix")
	}
	out := make([]int64, len(A))
	var agg Stats
	for i, row := range A {
		if len(row) != len(y) {
			return nil, Stats{}, fmt.Errorf("core: row %d length %d != vector length %d", i, len(row), len(y))
		}
		v, st, err := a.SecureDotProduct(row, y)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("core: row %d: %w", i, err)
		}
		out[i] = v
		agg.Add(st)
	}
	// Timing across rows parallelises over MAC units; delegate to the
	// matrix model for the critical-path cycles.
	mm, err := a.sim.MatMulStats(len(A), len(y), 1)
	if err != nil {
		return nil, Stats{}, err
	}
	agg.Cycles = mm.Cycles
	agg.Stages = mm.Stages
	agg.CoreUtilization = mm.CoreUtilization
	agg.ModeledTime = mm.ModeledTime
	agg.PCIeTime = a.sim.Config().PCIe.TransferTime(int(agg.TableBytes))
	return out, agg, nil
}

// SecureMatVecParallel computes A·y like SecureMatVec but garbles the
// independent row chains concurrently, one worker per configured MAC
// unit — the software mirror of the hardware's element-level
// parallelism (§6: "the throughput can be increased linearly by adding
// more GC cores to the FPGA"). Each worker owns a separate garbler
// (its own Δ), as separate MAC units would.
func (a *Accelerator) SecureMatVecParallel(A [][]int64, y []int64) ([]int64, Stats, error) {
	if len(A) == 0 {
		return nil, Stats{}, fmt.Errorf("core: empty matrix")
	}
	for i, row := range A {
		if len(row) != len(y) {
			return nil, Stats{}, fmt.Errorf("core: row %d length %d != vector length %d", i, len(row), len(y))
		}
	}
	workers := a.sim.Config().MACUnits
	if workers > len(A) {
		workers = len(A)
	}

	type rowResult struct {
		value int64
		stats Stats
		err   error
	}
	results := make([]rowResult, len(A))
	rowCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker garbler over the one compiled MAC: independent
			// state, as in a physically separate MAC unit.
			cfg := a.sim.Config()
			unit, err := a.sim.Fork(cfg.Rand)
			if err != nil {
				for i := range rowCh {
					results[i].err = err
				}
				return
			}
			for i := range rowCh {
				run, err := unit.GarbleDotProduct(A[i])
				if err != nil {
					results[i].err = err
					continue
				}
				v, err := maxsim.EvaluateDotProduct(cfg.Params, unit.Circuit(), run, y, cfg.Width, cfg.Signed)
				results[i] = rowResult{value: v, stats: run.Stats, err: err}
			}
		}()
	}
	for i := range A {
		rowCh <- i
	}
	close(rowCh)
	wg.Wait()

	out := make([]int64, len(A))
	var agg Stats
	for i, r := range results {
		if r.err != nil {
			return nil, Stats{}, fmt.Errorf("core: row %d: %w", i, r.err)
		}
		out[i] = r.value
		agg.Add(r.stats)
	}
	mm, err := a.sim.MatMulStats(len(A), len(y), 1)
	if err != nil {
		return nil, Stats{}, err
	}
	agg.Cycles = mm.Cycles
	agg.Stages = mm.Stages
	agg.CoreUtilization = mm.CoreUtilization
	agg.ModeledTime = mm.ModeledTime
	agg.PCIeTime = a.sim.Config().PCIe.TransferTime(int(agg.TableBytes))
	return out, agg, nil
}

// SecureMatMul computes A·B for a server-held matrix A (n×m raw
// fixed-point values) and a client-held matrix B (m×p): the element
// Y[i][j] is the sequential-MAC dot product of row i of A and column j
// of B — Eq. 3 of the paper, with the accelerator garbling each
// element's M rounds.
func (a *Accelerator) SecureMatMul(A, B [][]int64) ([][]int64, Stats, error) {
	if len(A) == 0 || len(B) == 0 {
		return nil, Stats{}, fmt.Errorf("core: empty operand matrix")
	}
	m := len(A[0])
	if len(B) != m {
		return nil, Stats{}, fmt.Errorf("core: inner dimensions %d and %d differ", m, len(B))
	}
	p := len(B[0])
	for i, row := range B {
		if len(row) != p {
			return nil, Stats{}, fmt.Errorf("core: B row %d has %d columns, want %d", i, len(row), p)
		}
	}
	// Column views of B are the client vectors.
	cols := make([][]int64, p)
	for j := 0; j < p; j++ {
		col := make([]int64, m)
		for k := 0; k < m; k++ {
			col[k] = B[k][j]
		}
		cols[j] = col
	}
	out := make([][]int64, len(A))
	var agg Stats
	for i, row := range A {
		if len(row) != m {
			return nil, Stats{}, fmt.Errorf("core: A row %d has %d columns, want %d", i, len(row), m)
		}
		out[i] = make([]int64, p)
		for j := 0; j < p; j++ {
			v, st, err := a.SecureDotProduct(row, cols[j])
			if err != nil {
				return nil, Stats{}, fmt.Errorf("core: element (%d,%d): %w", i, j, err)
			}
			out[i][j] = v
			agg.Add(st)
		}
	}
	// §4.3 timing: 1 product per 3·M·N·P·b cycles per unit, plus fill.
	mm, err := a.sim.MatMulStats(len(A), m, p)
	if err != nil {
		return nil, Stats{}, err
	}
	agg.Cycles = mm.Cycles
	agg.Stages = mm.Stages
	agg.CoreUtilization = mm.CoreUtilization
	agg.ModeledTime = mm.ModeledTime
	agg.PCIeTime = a.sim.Config().PCIe.TransferTime(int(agg.TableBytes))
	return out, agg, nil
}

// SecureQuadraticForm computes w·M·wᵀ — the §6 portfolio risk kernel —
// with the matrix held by the server and the weight vector by the
// client. The two chained linear stages both run under the protocol;
// the intermediate M·wᵀ is revealed only as fixed-point values to the
// client side of this in-process run.
func (a *Accelerator) SecureQuadraticForm(M [][]int64, w []int64, f fixed.Format) (float64, Stats, error) {
	if err := f.Validate(); err != nil {
		return 0, Stats{}, err
	}
	mv, st1, err := a.SecureMatVec(M, w)
	if err != nil {
		return 0, Stats{}, err
	}
	// Rescale the first-stage products (2·Frac fraction bits) back to
	// Frac bits before the second stage.
	rescaled := make([]int64, len(mv))
	for i, v := range mv {
		rescaled[i] = v >> uint(f.Frac)
	}
	q, st2, err := a.SecureDotProduct(rescaled, w)
	if err != nil {
		return 0, Stats{}, err
	}
	agg := st1
	agg.Add(st2)
	return f.DecodeProduct(q), agg, nil
}

// SecureDotProductFixed is the floating-point convenience wrapper: it
// quantises both vectors in format f, runs the protocol and decodes
// the accumulator.
func (a *Accelerator) SecureDotProductFixed(f fixed.Format, x, y []float64) (float64, Stats, error) {
	if err := f.Validate(); err != nil {
		return 0, Stats{}, err
	}
	if f.Width != a.sim.Config().Width {
		return 0, Stats{}, fmt.Errorf("core: format width %d != accelerator width %d", f.Width, a.sim.Config().Width)
	}
	if !a.sim.Config().Signed {
		return 0, Stats{}, fmt.Errorf("core: fixed-point operation requires the signed datapath")
	}
	xr, err := f.EncodeVector(x)
	if err != nil {
		return 0, Stats{}, err
	}
	yr, err := f.EncodeVector(y)
	if err != nil {
		return 0, Stats{}, err
	}
	raw, st, err := a.SecureDotProduct(xr, yr)
	if err != nil {
		return 0, Stats{}, err
	}
	return f.DecodeProduct(raw), st, nil
}
