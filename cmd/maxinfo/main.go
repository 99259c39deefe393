// Command maxinfo inspects a MAXelerator configuration: the FSM
// schedule (Figs. 2–3), the §4.3 performance formulas, the Table 1
// resource model and device fit, and the RNG battery of the simulated
// label-generator entropy source (§5.2).
//
// Usage:
//
//	maxinfo -b 32              # schedule + performance + resources
//	maxinfo -b 16 -units 4     # multi-unit fit on the VCU108
//	maxinfo -rng               # run the NIST-style battery
package main

import (
	"flag"
	"fmt"
	"os"

	"maxelerator/internal/maxsim"
	"maxelerator/internal/report"
	"maxelerator/internal/rng"
	"maxelerator/internal/sched"
)

func main() {
	width := flag.Int("b", 32, "operand bit-width")
	units := flag.Int("units", 1, "parallel MAC units")
	runRNG := flag.Bool("rng", false, "run the RNG statistical battery")
	rngBits := flag.Int("rngbits", 20000, "bit-stream length for the battery")
	trace := flag.Int("trace", 0, "run the cycle-level memory/PCIe trace for this many MACs")
	drain := flag.Int("drain", 4, "output-port drain rate in bytes/cycle for -trace")
	timeline := flag.Int("timeline", 0, "render the pipeline timeline for this many MACs")
	flag.Parse()

	if *timeline > 0 {
		out, err := report.Timeline(*width, *timeline, 100)
		if err != nil {
			fmt.Fprintln(os.Stderr, "maxinfo:", err)
			os.Exit(1)
		}
		fmt.Println(out)
		return
	}
	if *trace > 0 {
		if err := traceReport(*width, *trace, *drain); err != nil {
			fmt.Fprintln(os.Stderr, "maxinfo:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*width, *units, *runRNG, *rngBits); err != nil {
		fmt.Fprintln(os.Stderr, "maxinfo:", err)
		os.Exit(1)
	}
}

// traceReport runs the cycle-level trace: per-core production, memory
// occupancy and output-port stalls at the given drain rate.
func traceReport(width, macs, drain int) error {
	sim, err := maxsim.New(maxsim.Config{Width: width})
	if err != nil {
		return err
	}
	res, err := sim.Trace(maxsim.TraceConfig{MACs: macs, DrainBytesPerCycle: drain, MemoryBytesPerCore: 4096})
	if err != nil {
		return err
	}
	fmt.Printf("cycle-level trace: b=%d, %d MACs, drain %d B/cycle (sustainable: %d B/cycle)\n",
		width, macs, drain, sim.SustainableDrainBytesPerCycle())
	fmt.Printf("  cycles           : %d (busy %d, stalled %d — %.1f%%)\n",
		res.Cycles, res.BusyCycles, res.StallCycles, 100*res.StallFraction())
	fmt.Printf("  tables produced  : %d (%d B)\n", res.TablesProduced, res.BytesProduced)
	fmt.Printf("  peak memory      : %d B across %d core blocks\n", res.PeakOccupancyBytes, sim.Schedule().NumCores())
	t := report.NewTable("per-core production", "core", "segment", "tables")
	for i, c := range sim.Schedule().Cores {
		t.AddRow(fmt.Sprint(i), c.Segment.String(), fmt.Sprint(res.PerCoreTables[i]))
	}
	fmt.Println(t)
	return nil
}

func run(width, units int, runRNG bool, rngBits int) error {
	if runRNG {
		return rngReport(rngBits)
	}
	s, err := sched.Build(width)
	if err != nil {
		return err
	}
	fmt.Println(s.RenderTree())
	fmt.Println(s.RenderStageGrid())

	sim, err := maxsim.New(maxsim.Config{Width: width, MACUnits: units})
	if err != nil {
		return err
	}
	res, err := sim.Resources()
	if err != nil {
		return err
	}
	dev := sim.Config().Device
	maxUnits, err := dev.MaxMACUnits(width)
	if err != nil {
		return err
	}
	fmt.Printf("device: %s @ %.0f MHz\n", dev.Name, dev.MaxClockMHz)
	fmt.Printf("resources (%d unit(s)): %d LUT, %d LUTRAM, %d FF (%.1f%% of scarcest fabric resource)\n",
		units, res.LUT, res.LUTRAM, res.FlipFlop, 100*dev.Utilization(res))
	fmt.Printf("device fits at most %d MAC unit(s) at b=%d\n", maxUnits, width)
	fmt.Printf("throughput: %s MAC/s total, %s MAC/s per GC core, %s per MAC\n",
		report.Sci(sim.ThroughputMACsPerSec()), report.Sci(sim.ThroughputPerCoreMACsPerSec()), report.Dur(sim.TimePerMAC()))
	fmt.Printf("worst-case label entropy demand: %d bits/cycle (k=128)\n", s.WorstCaseRNGBitsPerCycle(128))
	return nil
}

func rngReport(bits int) error {
	r, err := rng.New(rng.Config{Seed: 1})
	if err != nil {
		return err
	}
	stream := r.Bits(bits)
	fmt.Printf("Wold–Tan RO RNG simulation: %d oscillators × %d inverters, %d sampled bits\n",
		rng.DefaultOscillators, rng.DefaultInverters, bits)
	t := report.NewTable("NIST-style battery (α = 0.01)", "test", "p-value", "pass", "detail")
	for _, res := range rng.Battery(stream) {
		t.AddRow(res.Name, fmt.Sprintf("%.4f", res.PValue), fmt.Sprint(res.Pass), res.Detail)
	}
	fmt.Println(t)
	return nil
}
