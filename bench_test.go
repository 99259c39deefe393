// Package maxelerator_test is the benchmark harness that regenerates
// every table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`). Each benchmark reports the paper's
// metric as a custom unit next to the Go timing, and the reproduced
// artefact itself is printed by cmd/maxbench.
package maxelerator_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"testing"

	"maxelerator/internal/casestudy"
	"maxelerator/internal/circuit"
	"maxelerator/internal/fpga"
	"maxelerator/internal/gc"
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/overlay"
	"maxelerator/internal/paper"
	"maxelerator/internal/protocol"
	"maxelerator/internal/rng"
	"maxelerator/internal/sched"
	"maxelerator/internal/serial"
	"maxelerator/internal/tinygarble"
	"maxelerator/internal/wire"
)

// clientRun is one Dial + Do + Close over a fresh connection — the
// single-request convenience the protocol package used to export.
func clientRun(c *protocol.Client, conn wire.Conn, y []int64) ([]int64, error) {
	cs, err := c.Dial(conn)
	if err != nil {
		return nil, err
	}
	out, err := cs.Do(y)
	if err != nil {
		return nil, err
	}
	if err := cs.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

// serveOne is clientRun's server side: one request on a fresh session,
// then the client's session end.
func serveOne(srv *protocol.Server, conn wire.Conn, cfg protocol.SessionConfig, req protocol.Request) error {
	sess, err := srv.NewSession(conn, cfg)
	if err != nil {
		return err
	}
	defer sess.Close()
	if _, err := sess.Serve(req); err != nil {
		return err
	}
	if _, err := sess.Serve(req); !errors.Is(err, protocol.ErrSessionEnded) {
		return fmt.Errorf("after the one request: %v, want ErrSessionEnded", err)
	}
	return nil
}

// BenchmarkTable1ResourceUsage regenerates Table 1: the fabric cost of
// one MAC unit per bit-width, reported as custom metrics next to the
// model-evaluation time.
func BenchmarkTable1ResourceUsage(b *testing.B) {
	for _, width := range paper.Widths {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			var r fpga.Resources
			var err error
			for i := 0; i < b.N; i++ {
				r, err = fpga.MACUnitResources(width)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(r.LUT), "LUTs")
			b.ReportMetric(float64(r.LUTRAM), "LUTRAMs")
			b.ReportMetric(float64(r.FlipFlop), "FFs")
			b.ReportMetric(paper.Table1[width].LUT, "paper-LUTs")
		})
	}
}

// BenchmarkTable2Throughput regenerates Table 2. The software rows are
// measured live on this host (real garbling); the MAXelerator rows
// garble functionally through the simulator and report the modelled
// hardware throughput; the overlay rows evaluate the calibrated cost
// model.
func BenchmarkTable2Throughput(b *testing.B) {
	for _, width := range paper.Widths {
		b.Run(fmt.Sprintf("software/b=%d", width), func(b *testing.B) {
			f, err := tinygarble.New(width)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			st, err := f.GarbleMACRounds(b.N)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(st.ThroughputMACsPerSec(), "MAC/s")
			b.ReportMetric(paper.TinyGarble.PerCoreMACs[width], "paper-MAC/s/core")
		})
		b.Run(fmt.Sprintf("overlay-model/b=%d", width), func(b *testing.B) {
			m := overlay.NewModel()
			var perCore float64
			for i := 0; i < b.N; i++ {
				var err error
				perCore, err = m.PerCoreMACsPerSec(width)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perCore, "MAC/s/core")
			b.ReportMetric(paper.Overlay.PerCoreMACs[width], "paper-MAC/s/core")
		})
		b.Run(fmt.Sprintf("maxelerator-sim/b=%d", width), func(b *testing.B) {
			sim, err := maxsim.New(maxsim.Config{Width: width})
			if err != nil {
				b.Fatal(err)
			}
			x := make([]int64, 8)
			for i := range x {
				x[i] = int64(i + 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var run *maxsim.DotProductRun
			for i := 0; i < b.N; i++ {
				run, err = sim.GarbleDotProduct(x)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(sim.ThroughputMACsPerSec(), "model-MAC/s")
			b.ReportMetric(sim.ThroughputPerCoreMACsPerSec(), "model-MAC/s/core")
			b.ReportMetric(paper.MAXelerator.PerCoreMACs[width], "paper-MAC/s/core")
			b.ReportMetric(float64(run.Stats.Cycles)/float64(run.Stats.MACs), "model-cycles/MAC")
		})
	}
}

// BenchmarkTable3RidgeRegression regenerates Table 3's runtime model.
func BenchmarkTable3RidgeRegression(b *testing.B) {
	var rows []casestudy.RidgeResult
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = casestudy.Ridge(casestudy.PaperSpeedup32().Factor())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ModeledImprovement, r.Dataset.Name+"-×")
	}
}

// BenchmarkFig1EndToEnd runs the full Fig. 1 system — handshake, IKNP
// OT (including the P-256 base phase), garbled-table streaming and
// evaluation — over an in-memory pipe.
func BenchmarkFig1EndToEnd(b *testing.B) {
	x := []int64{3, -5, 7, 11}
	y := []int64{2, 4, -6, 8}
	want := int64(3*2 - 5*4 - 7*6 + 11*8)
	srv, err := protocol.NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
	if err != nil {
		b.Fatal(err)
	}
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ca, cb := wire.Pipe()
		var wg sync.WaitGroup
		var srvErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			srvErr = serveOne(srv, ca, protocol.SessionConfig{}, protocol.Request{Matrix: [][]int64{x}})
		}()
		got, err := clientRun(cli, cb, y)
		wg.Wait()
		if err != nil || srvErr != nil {
			b.Fatal(err, srvErr)
		}
		if got[0] != want {
			b.Fatalf("end-to-end result %d, want %d", got[0], want)
		}
		ca.Close()
		cb.Close()
	}
}

// BenchmarkFig2TreeSchedule regenerates the Fig. 2 dataflow: schedule
// compilation plus the tree rendering.
func BenchmarkFig2TreeSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := sched.Build(8)
		if err != nil {
			b.Fatal(err)
		}
		if len(s.RenderTree()) == 0 {
			b.Fatal("empty rendering")
		}
	}
	s := sched.MustBuild(8)
	b.ReportMetric(float64(s.LatencyStages()), "latency-stages")
	b.ReportMetric(float64(s.StagesPerMAC()), "stages/MAC")
}

// BenchmarkFig3MuxAddUtilisation regenerates the Fig. 3 stage grid and
// reports the core-utilisation invariants.
func BenchmarkFig3MuxAddUtilisation(b *testing.B) {
	for _, width := range paper.Widths {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			var s *sched.Schedule
			var err error
			for i := 0; i < b.N; i++ {
				s, err = sched.Build(width)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.NumCores()), "cores")
			b.ReportMetric(float64(s.IdleSlotsPerStage()), "idle-slots")
			b.ReportMetric(float64(s.TablesPerStage()), "tables/stage")
		})
	}
}

// BenchmarkPerformanceAnalysisSweep exercises the §4.3 formulas across
// a width sweep wider than the paper's.
func BenchmarkPerformanceAnalysisSweep(b *testing.B) {
	widths := []int{4, 8, 16, 32, 64, 128}
	for i := 0; i < b.N; i++ {
		for _, w := range widths {
			s, err := sched.Build(w)
			if err != nil {
				b.Fatal(err)
			}
			if s.IdleSlotsPerStage() > 2 {
				b.Fatalf("b=%d: %d idle slots", w, s.IdleSlotsPerStage())
			}
		}
	}
}

// BenchmarkCaseRecommendation regenerates the §6 recommendation study.
func BenchmarkCaseRecommendation(b *testing.B) {
	var res casestudy.RecommendationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = casestudy.Recommendation(casestudy.PaperSpeedup32().Factor())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.AcceleratedPerIter.Hours(), "hours/iter")
	b.ReportMetric(res.ImprovementPct, "improvement-%")
}

// BenchmarkCasePortfolio regenerates the §6 portfolio study and also
// runs one real secure quadratic-form round through the simulator.
func BenchmarkCasePortfolio(b *testing.B) {
	b.Run("model", func(b *testing.B) {
		var m casestudy.PortfolioModel
		var err error
		for i := 0; i < b.N; i++ {
			m, err = casestudy.Portfolio(casestudy.PaperSpeedup32())
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(m.SoftwareTime.Seconds(), "tinygarble-s")
		b.ReportMetric(m.AcceleratedTime.Seconds(), "maxelerator-s")
	})
	b.Run("secure-round", func(b *testing.B) {
		sim, err := maxsim.New(maxsim.Config{Width: 16, AccWidth: 48, Signed: true})
		if err != nil {
			b.Fatal(err)
		}
		cov := []int64{512, 64, 64, 256} // flattened 2×2 fixed-point cov
		w := []int64{128, 64}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// cov·wᵀ: two dot products, then w·(cov·wᵀ): one more.
			r1, err := sim.GarbleDotProduct(cov[:2])
			if err != nil {
				b.Fatal(err)
			}
			if _, err := maxsim.EvaluateDotProduct(sim.Config().Params, sim.Circuit(), r1, w, 16, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRNG exercises the simulated ring-oscillator entropy source
// (§5.2) and asserts the battery still passes.
func BenchmarkRNG(b *testing.B) {
	r := rng.MustNew(rng.Config{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Bit()
	}
	b.StopTimer()
	if !rng.BatteryPasses(rng.MustNew(rng.Config{Seed: 2}).Bits(20000)) {
		b.Fatal("RO RNG failed the statistical battery")
	}
}

// BenchmarkAblationGarblingSchemes quantifies what each GC
// optimisation buys: garbled-table size and garbling cost per scheme
// (design decision 1 of DESIGN.md).
func BenchmarkAblationGarblingSchemes(b *testing.B) {
	ckt, err := circuit.MACCombinational(circuit.MACConfig{Width: 8, AccWidth: 16})
	if err != nil {
		b.Fatal(err)
	}
	gIn := make([]bool, ckt.NGarbler)
	for _, scheme := range []gc.Scheme{gc.HalfGates{}, gc.GRR3{}, gc.FourRow{}} {
		b.Run(scheme.Name(), func(b *testing.B) {
			params := gc.Params{Hash: gchash.MustAES(), Scheme: scheme}
			g, err := gc.NewGarbler(params, label.MustSystemDRBG())
			if err != nil {
				b.Fatal(err)
			}
			var bytes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gb, err := g.Garble(ckt, gc.GarbleOptions{GarblerInputs: gIn})
				if err != nil {
					b.Fatal(err)
				}
				bytes = gb.Material.CiphertextBytes()
			}
			b.ReportMetric(float64(bytes), "table-bytes")
			b.ReportMetric(float64(scheme.TableSize()), "rows/AND")
		})
	}
}

// BenchmarkAblationMultiplier compares the tree and serial multiplier
// netlists (design decision 2): same AND count, different schedulable
// parallelism under an ASAP engine.
func BenchmarkAblationMultiplier(b *testing.B) {
	for _, serial := range []bool{false, true} {
		name := "tree"
		if serial {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			var cycles int
			for i := 0; i < b.N; i++ {
				ckt, err := circuit.MAC(circuit.MACConfig{Width: 16, AccWidth: 32, SerialMultiplier: serial})
				if err != nil {
					b.Fatal(err)
				}
				cycles, _, err = tinygarble.ASAPCycles(ckt, 8)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(cycles), "asap-cycles@8units")
		})
	}
}

// BenchmarkAblationScheduling contrasts netlist-driven execution
// (dependency stalls) with the FSM schedule (≤2 idle slots) — design
// decision 3 and the heart of the paper's architecture.
func BenchmarkAblationScheduling(b *testing.B) {
	const width = 16
	b.Run("netlist-asap", func(b *testing.B) {
		ckt, err := circuit.MAC(circuit.MACConfig{Width: width, AccWidth: 2 * width})
		if err != nil {
			b.Fatal(err)
		}
		units := sched.MustBuild(width).NumCores()
		var stalls int
		for i := 0; i < b.N; i++ {
			_, stalls, err = tinygarble.ASAPCycles(ckt, units)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(stalls), "stall-cycles")
	})
	b.Run("fsm-schedule", func(b *testing.B) {
		var s *sched.Schedule
		for i := 0; i < b.N; i++ {
			s = sched.MustBuild(width)
		}
		b.ReportMetric(float64(s.IdleSlotsPerStage()), "idle-slots/stage")
	})
}

// BenchmarkAblationHash compares the fixed-key AES garbling hash with
// a SHA-256-based one (design decision 4 — the overlay baseline's
// SHA hashing is part of why it loses).
func BenchmarkAblationHash(b *testing.B) {
	for _, h := range []gchash.Hasher{gchash.MustAES(), gchash.NewSHA256()} {
		b.Run(h.Name(), func(b *testing.B) {
			ckt, err := circuit.MACCombinational(circuit.MACConfig{Width: 8, AccWidth: 16})
			if err != nil {
				b.Fatal(err)
			}
			params := gc.Params{Hash: h, Scheme: gc.HalfGates{}}
			g, err := gc.NewGarbler(params, label.MustSystemDRBG())
			if err != nil {
				b.Fatal(err)
			}
			gIn := make([]bool, ckt.NGarbler)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Garble(ckt, gc.GarbleOptions{GarblerInputs: gIn}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSerialDatapathStage garbles one stage of the bit-serial
// Fig. 2 datapath — the closest software analogue of what one FSM
// stage costs the hardware (2b AND tables).
func BenchmarkSerialDatapathStage(b *testing.B) {
	for _, width := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("b=%d", width), func(b *testing.B) {
			ckt, layout := serial.MustMAC(width)
			g, err := gc.NewGarbler(gc.DefaultParams(), label.MustSystemDRBG())
			if err != nil {
				b.Fatal(err)
			}
			opts := gc.GarbleOptions{GarblerInputs: circuit.Uint64ToBits(uint64(width), width)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gb, err := g.Garble(ckt, opts)
				if err != nil {
					b.Fatal(err)
				}
				opts.State0 = gb.StateOut0
			}
			b.ReportMetric(float64(layout.ANDsPerStage), "tables/stage")
			b.ReportMetric(float64(layout.StagesPerMAC), "stages/MAC")
			b.ReportMetric(float64(layout.StateBits), "state-bits")
		})
	}
}

// BenchmarkPCIeBottleneck runs the cycle-level trace at the paper's
// host bandwidth and at the sustainable rate — the quantitative form
// of the conclusion's communication-bottleneck caveat.
func BenchmarkPCIeBottleneck(b *testing.B) {
	sim, err := maxsim.New(maxsim.Config{Width: 8})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		drain int
	}{
		{"paper-pcie-4B", 4},
		{"sustainable", sim.SustainableDrainBytesPerCycle()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res maxsim.TraceResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = sim.Trace(maxsim.TraceConfig{MACs: 50, DrainBytesPerCycle: tc.drain, MemoryBytesPerCore: 4096})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.StallFraction(), "stall-fraction")
			b.ReportMetric(float64(res.Cycles), "cycles")
		})
	}
}

// BenchmarkOTModes compares label-transfer traffic of per-round and
// batched OT over a full protocol session.
func BenchmarkOTModes(b *testing.B) {
	for _, mode := range []struct {
		name string
		ot   protocol.OTMode
	}{
		{"per-round", protocol.OTPerRound},
		{"batched", protocol.OTBatched},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var traffic int64
			for i := 0; i < b.N; i++ {
				srv, err := protocol.NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
				if err != nil {
					b.Fatal(err)
				}
				cli, err := protocol.NewClient(rand.Reader)
				if err != nil {
					b.Fatal(err)
				}
				ca, cb := wire.Pipe()
				counted := wire.NewCounting(cb)
				var wg sync.WaitGroup
				var srvErr error
				wg.Add(1)
				go func() {
					defer wg.Done()
					srvErr = serveOne(srv, ca, protocol.SessionConfig{}, protocol.Request{Matrix: [][]int64{{1, 2, 3, 4}}, OT: mode.ot})
				}()
				if _, err := clientRun(cli, counted, []int64{1, 1, 1, 1}); err != nil {
					b.Fatal(err)
				}
				wg.Wait()
				if srvErr != nil {
					b.Fatal(srvErr)
				}
				s, r, _, _ := counted.Totals()
				traffic = s + r
				ca.Close()
				cb.Close()
			}
			b.ReportMetric(float64(traffic), "session-bytes")
		})
	}
}

// BenchmarkSignedSerialDatapath contrasts the Baugh–Wooley signed
// stage cost (2b+2 ANDs) against the unsigned stage (2b) — the
// design-variant finding of EXPERIMENTS.md.
func BenchmarkSignedSerialDatapath(b *testing.B) {
	for _, signed := range []bool{false, true} {
		name := "unsigned"
		if signed {
			name = "signed-baugh-wooley"
		}
		b.Run(name, func(b *testing.B) {
			var ckt *circuit.Circuit
			var layout serial.Layout
			if signed {
				ckt, layout = serial.MustMACSigned(8)
			} else {
				ckt, layout = serial.MustMAC(8)
			}
			g, err := gc.NewGarbler(gc.DefaultParams(), label.MustSystemDRBG())
			if err != nil {
				b.Fatal(err)
			}
			opts := gc.GarbleOptions{GarblerInputs: make([]bool, ckt.NGarbler)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gb, err := g.Garble(ckt, opts)
				if err != nil {
					b.Fatal(err)
				}
				opts.State0 = gb.StateOut0
			}
			b.ReportMetric(float64(layout.ANDsPerStage), "tables/stage")
		})
	}
}

// BenchmarkParallelGarbling measures the tentpole win: a 64×64 matvec
// session over an in-memory pipe with the row-garbling pool at 1
// (sequential, the pre-v2 behaviour) vs 8 workers. Batched OT keeps
// the transfer phase off the critical path so the measurement isolates
// table generation, which is what the pool parallelizes; with
// GOMAXPROCS >= 8 the 8-worker run garbles rows on all cores and wins
// by roughly the garbling share of the session (the wire format and
// the client's round-by-round evaluation are identical in both runs).
func BenchmarkParallelGarbling(b *testing.B) {
	const n = 64
	A := make([][]int64, n)
	y := make([]int64, n)
	for i := range A {
		A[i] = make([]int64, n)
		y[i] = int64(i%16 - 8)
		for j := range A[i] {
			A[i][j] = int64((i*31+j*17)%200 - 100)
		}
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			srv, err := protocol.NewServer(maxsim.Config{Width: 8, AccWidth: 32, Signed: true})
			if err != nil {
				b.Fatal(err)
			}
			cli, err := protocol.NewClient(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			cfg := protocol.SessionConfig{GarbleWorkers: workers}
			req := protocol.Request{Matrix: A, OT: protocol.OTBatched}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ca, cb := wire.Pipe()
				var wg sync.WaitGroup
				var srvErr error
				wg.Add(1)
				go func() {
					defer wg.Done()
					srvErr = serveOne(srv, ca, cfg, req)
				}()
				_, err := clientRun(cli, cb, y)
				wg.Wait()
				if err != nil || srvErr != nil {
					b.Fatal(err, srvErr)
				}
				ca.Close()
				cb.Close()
			}
			b.ReportMetric(float64(n*n)*float64(b.N)/b.Elapsed().Seconds(), "MAC/s-wall")
		})
	}
}

// BenchmarkMultiplexedSession contrasts eight requests over one
// multiplexed connection (one handshake, one base-OT + IKNP setup)
// with eight one-shot connections, and asserts the amortization
// invariant: the mux trace holds exactly one ot_setup span while every
// request keeps its own rounds and decode spans.
func BenchmarkMultiplexedSession(b *testing.B) {
	A := [][]int64{{1, 2, 3, 4}, {-5, 6, -7, 8}}
	y := []int64{1, -2, 3, -4}
	const requests = 8

	b.Run("one-shot", func(b *testing.B) {
		srv, err := protocol.NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
		if err != nil {
			b.Fatal(err)
		}
		cli, err := protocol.NewClient(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < requests; r++ {
				ca, cb := wire.Pipe()
				var wg sync.WaitGroup
				var srvErr error
				wg.Add(1)
				go func() {
					defer wg.Done()
					srvErr = serveOne(srv, ca, protocol.SessionConfig{}, protocol.Request{Matrix: A})
				}()
				if _, err := clientRun(cli, cb, y); err != nil || srvErr != nil {
					b.Fatal(err, srvErr)
				}
				wg.Wait()
				ca.Close()
				cb.Close()
			}
		}
	})

	b.Run("mux", func(b *testing.B) {
		o := obs.New(4)
		srv, err := protocol.NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
		if err != nil {
			b.Fatal(err)
		}
		srv.WithObs(o)
		cli, err := protocol.NewClient(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ca, cb := wire.Pipe()
			var wg sync.WaitGroup
			var srvErr error
			wg.Add(1)
			go func() {
				defer wg.Done()
				sess, err := srv.NewSession(ca, protocol.SessionConfig{})
				if err != nil {
					srvErr = err
					return
				}
				defer sess.Close()
				for {
					if _, err := sess.Serve(protocol.Request{Matrix: A}); err != nil {
						if !errors.Is(err, protocol.ErrSessionEnded) {
							srvErr = err
						}
						return
					}
				}
			}()
			cs, err := cli.Dial(cb)
			if err != nil {
				b.Fatal(err)
			}
			for r := 0; r < requests; r++ {
				if _, err := cs.Do(y); err != nil {
					b.Fatal(err)
				}
			}
			if err := cs.Close(); err != nil {
				b.Fatal(err)
			}
			wg.Wait()
			if srvErr != nil {
				b.Fatal(srvErr)
			}
			ca.Close()
			cb.Close()
		}
		b.StopTimer()
		// Amortization invariant, checked on the last connection's trace.
		s := o.Traces().Recent(1)[0]
		if got := s.SpanCount("ot_setup"); got != 1 {
			b.Fatalf("ot_setup spans = %d, want exactly 1 per connection", got)
		}
		if s.SpanCount("rounds") != requests || s.SpanCount("decode") != requests {
			b.Fatalf("per-request spans incomplete: rounds=%d decode=%d", s.SpanCount("rounds"), s.SpanCount("decode"))
		}
	})
}
