package circuit

import "sync"

// Program is the lowered, read-only form of a Circuit that the garbling
// and evaluation walkers of package gc execute: a straight-line
// instruction stream over wire *slots*. A slot is a position in the
// walker's working array; a wire's slot is handed to a later wire once
// its last reader has run, so the working set is the circuit's peak
// number of live wires instead of its wire count (the b=16 MAC has 1 994
// wires and never more than a few hundred live — a working set that stays
// in L1).
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
//   - The k-th AND instruction (k counted from 0 in stream order) owns
//     garbled table k; there are NAND of them.
type Program struct {
	// Instrs is the gate stream, in the netlist's topological order.
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
	Op        Op
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

// lower validates c and renames its wires onto recycled slots.
func lower(c *Circuit) (*Program, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// lastUse[w] is the index of the last gate reading wire w; result
	// wires are pinned past the end of the stream, unread wires die at
	// once.
	const unread = -1
	pinned := len(c.Gates)
	lastUse := make([]int, c.NWires)
	for w := range lastUse {
		lastUse[w] = unread
	}
	for i, g := range c.Gates {
		lastUse[g.A], lastUse[g.B] = i, i
	}
	for _, w := range c.Outputs {
		lastUse[w] = pinned
	}
	for _, w := range c.StateOuts {
		lastUse[w] = pinned
	}

	p := &Program{
		Instrs:     make([]Instr, len(c.Gates)),
		NGarbler:   c.NGarbler,
		NEvaluator: c.NEvaluator,
		NState:     c.NState,
		Outputs:    make([]uint32, len(c.Outputs)),
		StateOuts:  make([]uint32, len(c.StateOuts)),
	}
	span := p.InputSpan()
	slotOf := make([]uint32, c.NWires)
	p.NSlots = span
	// free is a stack, so the most recently vacated (cache-warm) slot is
	// reused first.
	var free []uint32
	for w := span - 1; w >= 0; w-- {
		slotOf[w] = uint32(w)
		if lastUse[w] == unread {
			free = append(free, uint32(w))
		}
	}
	for i, g := range c.Gates {
		var out uint32
		if n := len(free); n > 0 {
			out, free = free[n-1], free[:n-1]
		} else {
			out = uint32(p.NSlots)
			p.NSlots++
		}
		slotOf[g.Out] = out
		p.Instrs[i] = Instr{Op: g.Op, A: slotOf[g.A], B: slotOf[g.B], Out: out}
		if g.Op == AND {
			p.NAND++
		}
		// Vacate after allocating, so Out never aliases A or B.
		if lastUse[g.A] == i {
			free = append(free, slotOf[g.A])
		}
		if lastUse[g.B] == i && g.B != g.A {
			free = append(free, slotOf[g.B])
		}
		if lastUse[g.Out] == unread {
			free = append(free, out)
		}
	}
	for i, w := range c.Outputs {
		p.Outputs[i] = slotOf[w]
	}
	for i, w := range c.StateOuts {
		p.StateOuts[i] = slotOf[w]
	}
	return p, nil
}
