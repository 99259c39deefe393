package gc

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
	"maxelerator/internal/recycle"
)

// Request garbles the rows of one matrix request, each a Cols-round
// sequential chain of one circuit, under one Δ and one AES key set from
// a 16-byte seed. The request is one circuit in which the evaluator's
// input of round j fans out to every row's round j, so every row's
// round j shares that input's labels: label n of round j is
// AES_k(2⁶⁴−2 ‖ j·NEvaluator + n), and the evaluator obtains them by
// one OT whatever the row count. Row i's other labels are AES_k(i ‖ n)
// for n = 0, 1, … in draw order, and Δ is AES_k(2⁶⁴−1 ‖ 0); a row index
// is a non-negative int, so it never reaches either high word. Row i
// hashes under the tweaks from i·Cols·ANDs·TweaksPerGate on, a range no
// other row touches. A row's bytes therefore depend on its index alone,
// not on which lane garbles it or when, and no tweak repeats under Δ
// however the rows are spread over lanes. A Request is read-only and
// safe for concurrent use; each goroutine garbles on its own Lane.
type Request struct {
	params    Params
	ckt       *circuit.Circuit
	cols      int
	key       gchash.Schedule // the request key's; every lane's streams read it
	delta     label.Delta
	rowTweaks uint64 // the tweak range one row spans
}

// The high words of the counter blocks outside every row's: Δ's, and
// the evaluator-input labels' that every row shares.
const (
	deltaDomain  = math.MaxUint64
	columnDomain = math.MaxUint64 - 1
)

// NewRequest keys a request of cols-round rows of c from seed.
func NewRequest(params Params, c *circuit.Circuit, cols int, seed [16]byte) (*Request, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	prog, err := c.Program()
	if err != nil {
		return nil, err
	}
	if cols < 1 || prog.NEvaluator > 0 && uint64(cols) > math.MaxUint64/uint64(prog.NEvaluator) {
		return nil, fmt.Errorf("gc: request of %d-round rows", cols)
	}
	r := &Request{params: params, ckt: c, cols: cols, key: gchash.NewSchedule(seed),
		rowTweaks: uint64(cols) * uint64(prog.NAND) * params.Scheme.TweaksPerGate()}
	var d label.Label
	r.key.BlockAt(d[:], deltaDomain, 0)
	r.delta = label.DeltaFromLabel(d)
	return r, nil
}

// AppendEvalPairs appends the evaluator-input label pairs of r's
// rounds to dst, Cols·NEvaluator of them in round order: round j's are
// the EvalPairs every row's round j carries, so they are known before
// any row is garbled. Each counter block is encrypted in place in dst.
func (r *Request) AppendEvalPairs(dst []label.Pair) []label.Pair {
	n := r.cols * r.ckt.NEvaluator
	dst = slices.Grow(dst, n)
	for i := range uint64(n) {
		dst = append(dst, label.Pair{})
		p := &dst[len(dst)-1]
		r.key.BlockAt(p.False[:], columnDomain, i)
		p.True = r.delta.Flip(p.False)
	}
	return dst
}

// Lane garbles rows of its request on one goroutine, reusing the
// walker's working memory from row to row. It garbles rows in
// increasing order only, so its tweak cursor never moves down.
type Lane struct {
	req    *Request
	g      Garbler
	src    gchash.CTR // the current row's label stream
	col    gchash.CTR // the evaluator-input labels' stream
	bits   []bool
	state  []label.Label // the chained state: the last round's StateOut0
	rounds *RoundPool    // where rounds come from; nil allocates each
	next   int           // the lowest row the lane may still garble
}

// Lane returns a new lane of r that allocates every round it garbles,
// so each stays valid for as long as its holder keeps it.
func (r *Request) Lane() *Lane { return r.PooledLane(nil) }

// PooledLane returns a new lane of r that garbles each round into one
// taken from rounds, a pool of r's circuit, when one is free, and into
// a new one otherwise. The holder of a round hands it back with
// rounds.Put once done with it.
func (r *Request) PooledLane(rounds *RoundPool) *Lane {
	l := &Lane{req: r, src: r.key.Stream(), col: r.key.Stream(), bits: make([]bool, r.ckt.NGarbler), rounds: rounds}
	l.g = Garbler{params: r.params, delta: r.delta, rand: &l.src, aes: r.params.halfGatesAES(), deltaLabel: r.delta.Label()}
	return l
}

// GarbleRow garbles row i for the garbler's values x, chaining the state
// labels from round to round, and hands each round to emit as soon as
// it is garbled; an emit error stops the row and is returned as is.
// The round is emit's from then on: the lane chains its own copy of the
// state labels, so the round may be released while the next is
// garbled. Each value enters as its low bits, so the caller
// range-checks x. A row at or below one this lane has garbled, even in
// part, is refused. Round j's EvalPairs are the same in every row.
func (l *Lane) GarbleRow(i int, x []int64, emit func(round int, gb *Garbled) error) error {
	if i < l.next {
		return fmt.Errorf("gc: row %d refused: this lane has garbled row %d", i, l.next-1)
	}
	if len(x) != l.req.cols {
		return fmt.Errorf("gc: row %d has %d values, the request %d rounds", i, len(x), l.req.cols)
	}
	l.next = i + 1
	l.src.Seek(uint64(i), 0)
	l.g.next = uint64(i) * l.req.rowTweaks
	var state0 []label.Label
	for round, xi := range x {
		gb, err := l.garbleRound(round, xi, state0)
		if err != nil {
			return fmt.Errorf("gc: row %d round %d: %w", i, round, err)
		}
		l.state = append(l.state[:0], gb.StateOut0...)
		state0 = l.state
		if err := emit(round, gb); err != nil {
			return err
		}
	}
	return nil
}

// garbleRound garbles round j of the lane's current row for the value
// xi, on state0 (nil at round 0), with round j's shared evaluator-input
// labels.
func (l *Lane) garbleRound(j int, xi int64, state0 []label.Label) (*Garbled, error) {
	for b := range l.bits { // Garble only reads it, so every round shares it
		l.bits[b] = uint64(xi)>>b&1 == 1 // circuit.Int64ToBits, in place
	}
	l.col.Seek(columnDomain, uint64(j)*uint64(l.req.ckt.NEvaluator))
	gb := l.rounds.get()
	if err := l.g.garble(gb, l.req.ckt, GarbleOptions{GarblerInputs: l.bits, State0: state0, EvalLabels: &l.col}); err != nil {
		l.rounds.Put(gb)
		return nil, err
	}
	return gb, nil
}

// RoundPool recycles the rounds of one compiled circuit between the
// lanes that garble them and the holder that frames them. Every round
// in it is sized for the circuit, so a lane refills a released round
// in place without allocating. Its free rounds are a recycle.List:
// shared by every lane and trimmed by the garbage collector, so a pool
// nobody draws from lets go of its rounds two collection periods after
// its last use, or at once when its owner calls Release.
type RoundPool struct {
	free recycle.List[*Garbled]
	out  atomic.Int64 // rounds taken and not yet put back
	// newRound makes a round sized for the circuit; a field, not a
	// method value, so a Reserve allocates only the rounds it adds.
	newRound func() *Garbled
}

// NewRoundPool returns an empty pool of rounds of c garbled under params.
func NewRoundPool(params Params, c *circuit.Circuit) (*RoundPool, error) {
	if err := params.validate(); err != nil {
		return nil, err
	}
	prog, err := c.Program()
	if err != nil {
		return nil, err
	}
	return &RoundPool{newRound: func() *Garbled {
		gb := new(Garbled)
		gb.size(prog, params.Scheme.TableSize(), prog.NState)           // room for any round's trailer
		gb.Material.StateInActive = make([]label.Label, 0, prog.NState) // room for a round 0
		return gb
	}}, nil
}

// get takes a free round, or makes one when none is free; a nil pool
// makes each round empty, for garble to allocate.
func (p *RoundPool) get() *Garbled {
	if p == nil {
		return new(Garbled)
	}
	p.out.Add(1)
	if gb, ok := p.free.Get(); ok {
		return gb
	}
	return p.newRound()
}

// Reserve makes at least n rounds free, so that lanes drawing up to n
// rounds between two Reserves allocate none, and keeps them through the
// collector's trims for as long as each run reserves them.
func (p *RoundPool) Reserve(n int) { p.free.Reserve(n, p.newRound) }

// Release lets go of every free round, for an owner with nothing left to
// garble; the pool stays usable.
func (p *RoundPool) Release() { p.free.Release() }

// Outstanding reports how many rounds lanes have taken from p and
// nobody has put back; a pool whose holders are all done reports zero.
func (p *RoundPool) Outstanding() int64 { return p.out.Load() }

// Put releases gb, a round a lane of this pool garbled, for a later
// round to refill. The caller must hold no reference into gb
// afterwards: its frame, tables, labels and pairs are overwritten by
// the next round garbled into it. Put on a nil pool drops gb.
func (p *RoundPool) Put(gb *Garbled) {
	if p == nil {
		return
	}
	p.out.Add(-1)
	if recycle.Poison {
		poisonRound(gb)
	}
	p.free.Put(gb)
}

// poisonRound fills every byte a released round holds with 0xA5 and
// every bit with true, to the slices' capacities, so a reader that
// outlives the release reads garbage it cannot mistake for a round.
func poisonRound(gb *Garbled) {
	m := &gb.Material
	recycle.Scribble(gb.frame[:cap(gb.frame)])
	for _, ls := range [][]label.Label{m.GarblerActive, m.StateInActive, m.ConstActive[:], gb.StateOut0} {
		ls = ls[:cap(ls)]
		for i := range ls {
			recycle.Scribble(ls[i][:])
		}
	}
	for _, ps := range [][]label.Pair{gb.EvalPairs, gb.GarblerPairs, gb.OutputPairs} {
		ps = ps[:cap(ps)]
		for i := range ps {
			recycle.Scribble(ps[i].False[:])
			recycle.Scribble(ps[i].True[:])
		}
	}
	perm := m.OutputPerm[:cap(m.OutputPerm)]
	for i := range perm {
		perm[i] = true
	}
	m.NumTables, m.TweakBase, gb.NextTweak = 0xA5A5, 0xA5A5A5A5A5A5A5A5, 0xA5A5A5A5A5A5A5A5
}
