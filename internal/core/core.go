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
// garbled stream. It is a one-row SecureMatVec.
func (a *Accelerator) SecureDotProduct(x, y []int64) (int64, Stats, error) {
	out, st, err := a.SecureMatVec([][]int64{x}, y)
	if err != nil {
		return 0, Stats{}, err
	}
	return out[0], st, nil
}

// garbleTestHook, when non-nil, sees every row's garbling before it is
// evaluated — the seam the fresh-Δ test reads output pairs through.
var garbleTestHook func(*maxsim.DotProductRun)

// SecureMatVec computes A·y for a server-held matrix A (rows of raw
// fixed-point values) and a client vector y. Each output element is an
// independent sequential-MAC chain; timing aggregates over the
// configured MAC units.
//
// Every call garbles its rows as one request: a fresh free-XOR offset
// and fresh labels per call, shared by its rows, as package protocol
// garbles a request, because new labels are required for every
// garbling operation.
func (a *Accelerator) SecureMatVec(A [][]int64, y []int64) ([]int64, Stats, error) {
	if len(A) == 0 {
		return nil, Stats{}, fmt.Errorf("core: empty matrix")
	}
	cfg := a.sim.Config()
	req, err := a.sim.NewRequest(len(y)) // every row must have len(y) values
	if err != nil {
		return nil, Stats{}, fmt.Errorf("core: %w", err)
	}
	runs, err := a.sim.GarbleRows(req, A)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("core: %w", err)
	}
	out := make([]int64, len(A))
	var agg Stats
	for i, run := range runs {
		if garbleTestHook != nil {
			garbleTestHook(run)
		}
		if out[i], err = maxsim.EvaluateDotProduct(cfg.Params, a.sim.Circuit(), run, y, cfg.Width, cfg.Signed); err != nil {
			return nil, Stats{}, fmt.Errorf("core: row %d: %w", i, err)
		}
		agg.Add(run.Stats)
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
	agg.PCIeTime = cfg.PCIe.TransferTime(int(agg.TableBytes))
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
