package circuit

import (
	"slices"
	"sync"
)

// Program is the lowered, read-only form of a Circuit that the garbling
// and evaluation walkers of package gc execute: a straight-line
// instruction stream over wire *slots*. A slot is a position in the
// walker's working array; a wire's slot is handed to a later wire once
// its last reader has run, so the working set is the circuit's peak
// number of live wires instead of its wire count (the b=16 MAC has 1 415
// wires and never more than 182 live — a working set that stays in L1).
//
// Conventions the walkers rely on:
//
//   - On entry, input wire w lives in slot w for every w below
//     InputSpan(): Const0, Const1, the garbler inputs, the evaluator
//     inputs, the state wires, in that order — the netlist's own
//     numbering. Those slots are recycled like any other, so a walker
//     that needs an input label after the walk must save it first.
//   - Outputs and StateOuts name slots that are never recycled: they hold
//     the circuit's results when the last instruction has run.
//   - Every slot index is below NSlots, every instruction's Op is XOR or
//     AND, and an instruction's Out slot is distinct from its A and B
//     slots. Lowering validates the netlist, so a walker indexes without
//     further checks and has no failure mode of its own.
//   - Instrs is the netlist's gates in a topological order of lowering's
//     choosing (see Paired), one instruction a gate. An AND instruction's
//     Index is its position among the netlist's ANDs in netlist order:
//     it owns garbled table Index, so tables and tweaks fall where netlist
//     order puts them whatever order the walk runs in. The Indexes are
//     0 … NAND−1, each once.
//   - An AND instruction with Paired set is followed at once by another
//     AND that reads neither its output nor any wire computed from it:
//     a two-AND bundle, which a walker may garble in one call. The
//     second AND's Out may be a slot the first vacated (one of the
//     first's inputs, read for the last time), so such a walker reads
//     all four input labels before it writes either output. A walker
//     that runs one instruction at a time may ignore Paired.
type Program struct {
	// Instrs is the gate stream, in execution order.
	Instrs []Instr
	// NSlots is the size of the working array the program needs.
	NSlots int
	// NAND is the number of AND instructions — the garbled-table count.
	NAND int
	// NGarbler, NEvaluator and NState mirror the circuit's input counts.
	NGarbler, NEvaluator, NState int
	// Outputs and StateOuts are the slots holding, after the walk, the
	// circuit's output wires and next-round state wires, in order.
	Outputs, StateOuts []uint32
}

// Instr is one 2-input gate over slots.
type Instr struct {
	A, B, Out uint32
	// Index is an AND's position among the netlist's ANDs: its table.
	// Zero on an XOR.
	Index uint32
	Op    Op
	// Paired marks the first AND of a two-AND bundle.
	Paired bool
}

// InputSpan is the number of leading slots the walker fills before the
// walk: two constants plus every party input and state wire.
func (p *Program) InputSpan() int { return FirstInput + p.NGarbler + p.NEvaluator + p.NState }

// compiled caches a circuit's lowered form. It hangs off the Circuit —
// not off a registry — so the program lives exactly as long as the
// netlist it was lowered from.
type compiled struct {
	once sync.Once
	prog *Program
	err  error
}

// Program returns the circuit's lowered form, compiling it on first use.
// The result is shared and read-only; concurrent callers are safe. A
// structurally invalid netlist (one Validate rejects) yields that error
// on every call. The circuit must not be mutated afterwards — Circuit is
// documented immutable, and the program would go stale.
func (c *Circuit) Program() (*Program, error) {
	c.lowered.once.Do(func() { c.lowered.prog, c.lowered.err = lower(c) })
	return c.lowered.prog, c.lowered.err
}

// lower validates c and schedules its gates onto recycled slots.
//
// The schedule is netlist order with ANDs paired into bundles, in one
// pass: at each AND not yet emitted it looks up to pairReach gates ahead
// for the first AND whose inputs are computed, or computable by XOR
// gates alone from computed wires (its XOR cone, at most maxCone gates).
// The cone is emitted, then the pair. Slots are allocated as gates are
// emitted, from per-wire counts of the reads still to come, and a
// pairing that would hold more wires live at once than netlist order
// ever does is refused, so bundling does not grow the working set.
func lower(c *Circuit) (*Program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	p := &Program{
		Instrs:     make([]Instr, len(c.Gates)),
		NGarbler:   c.NGarbler,
		NEvaluator: c.NEvaluator,
		NState:     c.NState,
		Outputs:    make([]uint32, len(c.Outputs)),
		StateOuts:  make([]uint32, len(c.StateOuts)),
	}
	s := scheduler{c: c, p: p, wires: make([]wire, c.NWires)}
	span := p.InputSpan()
	s.countReaders()
	s.peak = s.netlistPeak(span)
	s.countReaders()
	// free is a stack, so the most recently vacated (cache-warm) slot is
	// reused first.
	s.free = make([]uint32, 0, s.peak)
	p.NSlots = span
	for w := span - 1; w >= 0; w-- {
		s.wires[w].slot = uint32(w)
		if s.wires[w].readers == 0 {
			s.free = append(s.free, uint32(w))
		}
	}
	for i, g := range c.Gates {
		s.wires[g.Out].slot = pending | uint32(i)
	}
	s.schedule()
	for i, w := range c.Outputs {
		p.Outputs[i] = s.wires[w].slot
	}
	for i, w := range c.StateOuts {
		p.StateOuts[i] = s.wires[w].slot
	}
	return p, nil
}

// wire is one wire's state during lowering.
type wire struct {
	// readers counts the reads still to come; a result wire holds one
	// more, which never comes.
	readers int32
	// slot is the wire's slot once computed, or pending | its gate.
	slot uint32
}

const (
	// pairReach is how many gates past an AND lowering looks for its
	// partner.
	pairReach = 256
	// maxCone bounds the XOR gates pulled ahead of a bundle.
	maxCone = 8
	// pending marks, in wire.slot, a gate output not yet computed;
	// the low bits are the index of the gate that computes it.
	pending = 1 << 31
)

// scheduler is lower's state: what is computed, where it lives, and
// who still reads it.
type scheduler struct {
	c     *Circuit
	p     *Program
	wires []wire
	free  []uint32
	// peak is the most wires netlist order holds live at once.
	peak int
	// n is the number of instructions emitted.
	n int
	// trial is a candidate bundle: its XOR cone, then the pair.
	trial [maxCone + 2]int32
}

// countReaders sets every wire's readers from the netlist.
func (s *scheduler) countReaders() {
	for w := range s.wires {
		s.wires[w].readers = 0
	}
	for _, g := range s.c.Gates {
		s.wires[g.A].readers++
		if g.B != g.A {
			s.wires[g.B].readers++
		}
	}
	for _, w := range s.c.Outputs {
		s.wires[w].readers++
	}
	for _, w := range s.c.StateOuts {
		s.wires[w].readers++
	}
}

// netlistPeak is the slot count of netlist order: the most wires live
// at once, an output counted from before its gate's inputs are vacated.
// It consumes the readers counts.
func (s *scheduler) netlistPeak(span int) int {
	live := span
	for w := range span {
		if s.wires[w].readers == 0 {
			live--
		}
	}
	peak := span
	for i := range s.c.Gates {
		live++
		peak = max(peak, live)
		live -= s.read(i)
	}
	return peak
}

// read counts gate i's reads of its inputs and returns how many wires
// that leaves dead: inputs read for the last time, and an output no
// one reads.
func (s *scheduler) read(i int) (dead int) {
	g := &s.c.Gates[i]
	if s.wires[g.A].readers--; s.wires[g.A].readers == 0 {
		dead++
	}
	if g.B != g.A {
		if s.wires[g.B].readers--; s.wires[g.B].readers == 0 {
			dead++
		}
	}
	if s.wires[g.Out].readers == 0 {
		dead++
	}
	return dead
}

// schedule emits every gate: netlist order, each AND with a partner
// where pair finds one.
func (s *scheduler) schedule() {
	var k uint32 // the netlist AND index of gate i, when it is an AND
	for i, g := range s.c.Gates {
		switch {
		case s.emitted(i): // ahead, in an earlier bundle
		case g.Op == XOR:
			s.emit(i, 0, false)
		case !s.pair(i, k):
			s.emit(i, k, false)
		}
		if g.Op == AND {
			k++
		}
	}
}

// pair looks for a partner of AND i, whose AND index is k, and emits
// the bundle if it finds one.
func (s *scheduler) pair(i int, k uint32) bool {
	gates := s.c.Gates
	kj := k
	for j := i + 1; j < len(gates) && j <= i+pairReach; j++ {
		g := &gates[j]
		if g.Op != AND {
			continue
		}
		kj++
		if s.emitted(j) {
			continue
		}
		// An XOR cone that reached AND i's output would need an AND not
		// yet computed, so the partner never depends on i.
		cone, ok := s.xorCone(s.trial[:0], g.A)
		if ok {
			cone, ok = s.xorCone(cone, g.B)
		}
		if !ok {
			continue
		}
		cone = append(cone, int32(i), int32(j))
		if !s.fits(cone) {
			continue
		}
		for _, x := range cone[:len(cone)-2] {
			s.emit(int(x), 0, false)
		}
		s.emit(i, k, true)
		s.emit(j, kj, false)
		return true
	}
	return false
}

// xorCone appends to cone, in topological order, the gates not yet
// emitted that wire w needs. It fails if one of them is an AND or the
// cone outgrows maxCone.
func (s *scheduler) xorCone(cone []int32, w int) ([]int32, bool) {
	slot := s.wires[w].slot
	if slot&pending == 0 {
		return cone, true
	}
	gi := int32(slot &^ pending)
	if slices.Contains(cone, gi) {
		return cone, true
	}
	g := &s.c.Gates[gi]
	if g.Op != XOR || len(cone) == maxCone {
		return cone, false
	}
	var ok bool
	if cone, ok = s.xorCone(cone, g.A); !ok {
		return cone, false
	}
	if cone, ok = s.xorCone(cone, g.B); !ok {
		return cone, false
	}
	if len(cone) == maxCone {
		return cone, false
	}
	return append(cone, gi), true
}

// fits reports whether emitting gates (a candidate bundle: its XOR
// cone, then the pair) next, and then netlist order up to the partner,
// the last of gates, keeps the live wires at or under peak. Past the
// partner every gate of the bundle is where netlist order has it, so a
// schedule whose every bundle fits never holds more. It leaves the
// wires as it found them.
func (s *scheduler) fits(gates []int32) bool {
	live := s.p.NSlots - len(s.free)
	ok := true
	n := 0 // gates read so far
	step := func(i int) bool {
		if live++; live > s.peak {
			return false
		}
		live -= s.read(i)
		return true
	}
	for _, gi := range gates {
		if ok = step(int(gi)); !ok {
			break
		}
		n++
		s.wires[s.c.Gates[gi].Out].slot &^= pending
	}
	first, last := int(gates[len(gates)-2]), int(gates[len(gates)-1])
	next := first + 1 // the first gate of the continuation not read
	for ; ok && next < last; next++ {
		if !s.emitted(next) {
			if ok = step(next); !ok {
				break
			}
		}
	}
	for i := first + 1; i < next; i++ {
		if !s.emitted(i) {
			s.unread(i)
		}
	}
	for _, gi := range gates[:n] {
		s.unread(int(gi))
		s.wires[s.c.Gates[gi].Out].slot |= pending
	}
	return ok
}

// emitted reports whether gate i has been emitted (or, inside fits,
// is taken as emitted).
func (s *scheduler) emitted(i int) bool { return s.wires[s.c.Gates[i].Out].slot&pending == 0 }

// unread undoes read(i).
func (s *scheduler) unread(i int) {
	g := &s.c.Gates[i]
	s.wires[g.A].readers++
	if g.B != g.A {
		s.wires[g.B].readers++
	}
}

// emit appends gate i as the next instruction, with AND index k, and
// moves its wires: its output into a slot, its inputs out of theirs
// when this was their last read.
func (s *scheduler) emit(i int, k uint32, paired bool) {
	g := &s.c.Gates[i]
	var out uint32
	if n := len(s.free); n > 0 {
		out, s.free = s.free[n-1], s.free[:n-1]
	} else {
		out = uint32(s.p.NSlots)
		s.p.NSlots++
	}
	a, b := s.wires[g.A].slot, s.wires[g.B].slot
	s.wires[g.Out].slot = out
	s.p.Instrs[s.n] = Instr{Op: g.Op, A: a, B: b, Out: out, Index: k, Paired: paired}
	s.n++
	if g.Op == AND {
		s.p.NAND++
	}
	// Vacate after allocating, so Out never aliases A or B.
	if s.wires[g.A].readers--; s.wires[g.A].readers == 0 {
		s.free = append(s.free, a)
	}
	if g.B != g.A {
		if s.wires[g.B].readers--; s.wires[g.B].readers == 0 {
			s.free = append(s.free, b)
		}
	}
	if s.wires[g.Out].readers == 0 {
		s.free = append(s.free, out)
	}
}
