package circuit

import (
	"math/rand"
	"sync"
	"testing"
)

func TestMACConfigValidation(t *testing.T) {
	if _, err := MAC(MACConfig{Width: 0, AccWidth: 8}); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := MAC(MACConfig{Width: 8, AccWidth: 8}); err == nil {
		t.Fatal("narrow accumulator accepted")
	}
	if _, err := MACCombinational(MACConfig{Width: -1, AccWidth: 0}); err == nil {
		t.Fatal("negative width accepted")
	}
}

// TestMACIsMinimal pins the served MAC's AND counts and shows the
// builder leaves nothing for a netlist pass to remove: no AND reads a
// constant, the same wire twice or a wire and its complement, no two
// ANDs read the same pair, and a backward liveness walk from Outputs and
// StateOuts reaches every AND. The radix-4 Booth rows took the counts
// from 170 / 610 / 2 269 signed and 141 / 549 / 2 144 unsigned, the
// tree multiplier with three conditional negations, to these.
func TestMACIsMinimal(t *testing.T) {
	for _, tc := range []struct {
		width  int
		signed bool
		ands   int
	}{
		{8, true, 112}, {16, true, 426}, {32, true, 1641},
		{8, false, 128}, {16, false, 461}, {32, false, 1715},
	} {
		c := MustMAC(MACConfig{Width: tc.width, AccWidth: 2 * tc.width, Signed: tc.signed})
		if got := c.Stats().ANDs; got != tc.ands {
			t.Errorf("b=%d signed=%v: %d ANDs, want %d", tc.width, tc.signed, got, tc.ands)
		}
		if w := auditANDs(c); w != (andWaste{}) {
			t.Errorf("b=%d signed=%v: wasted ANDs %+v", tc.width, tc.signed, w)
		}
	}
}

// andWaste counts the ANDs a netlist pass could still remove.
type andWaste struct {
	dead          int // no path to an Outputs or StateOuts wire
	unfolded      int // reads a constant, or the same wire twice
	repeated      int // reads the same pair of wires as a later AND
	complementary int // reads w and XOR(w, Const1): always 0
}

// auditANDs walks c backwards from Outputs and StateOuts and classifies
// every AND that is not needed; each AND lands in at most one class.
func auditANDs(c *Circuit) andWaste {
	var w andWaste
	type pair struct{ a, b int }
	seen := make(map[pair]bool)
	notOf := make(map[int]int) // XOR(w, Const1) → w
	for _, g := range c.Gates {
		if g.Op == XOR && (g.A == Const1) != (g.B == Const1) {
			notOf[g.Out] = g.A + g.B - Const1
		}
	}
	live := make([]bool, c.NWires)
	for _, o := range c.Outputs {
		live[o] = true
	}
	for _, o := range c.StateOuts {
		live[o] = true
	}
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := c.Gates[i]
		if g.Op == AND {
			p := pair{min(g.A, g.B), max(g.A, g.B)}
			switch {
			case !live[g.Out]:
				w.dead++
			case p.a < FirstInput || p.a == p.b:
				w.unfolded++
			case seen[p]:
				w.repeated++
			case isNot(notOf, p.a, p.b) || isNot(notOf, p.b, p.a):
				w.complementary++
			}
			seen[p] = true
		}
		if live[g.Out] {
			live[g.A], live[g.B] = true, true
		}
	}
	return w
}

// isNot reports whether wire n is XOR(w, Const1).
func isNot(notOf map[int]int, n, w int) bool {
	v, ok := notOf[n]
	return ok && v == w
}

// No pass removes dead gates any more: the builder must not emit them.
// TestMACIsMinimal shows it does not by a liveness walk; this checks the
// walk finds a dead AND (and ignores a dead XOR, which costs nothing to
// garble).
func TestOptimizeRemovesDeadGates(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(4)
	y := b.EvaluatorInputs(4)
	used := b.AND(x[0], y[0])
	b.AND(x[1], y[1]) // dead
	b.XOR(x[2], y[2]) // dead
	b.Outputs(used)
	if w := auditANDs(b.MustBuild()); w != (andWaste{dead: 1}) {
		t.Fatalf("audit %+v, want one dead AND", w)
	}
}

// No pass merges duplicate gates any more: the builder must not emit
// them. This checks the audit TestMACIsMinimal relies on flags an AND
// that repeats another's operands in either order.
func TestOptimizeMergesDuplicates(t *testing.T) {
	b := NewBuilder()
	x := b.GarblerInputs(2)
	y := b.EvaluatorInputs(2)
	a1 := b.AND(x[0], y[0])
	a2 := b.AND(y[0], x[0]) // commutative duplicate
	x1 := b.XOR(x[1], y[1])
	x2 := b.XOR(y[1], x[1])
	b.Outputs(b.AND(a1, x1), b.AND(a2, x2))
	if w := auditANDs(b.MustBuild()); w != (andWaste{repeated: 1}) {
		t.Fatalf("audit %+v, want one repeated AND", w)
	}
}

// An adder bit whose two addends are constant needs no AND: 1 + 0 + c
// once emitted AND(¬c, c), which is always 0. This checks the fold and
// that the audit flags such an AND built behind the builder's back.
func TestOptimizeFoldsComplementaryAND(t *testing.T) {
	b := NewBuilder()
	b.GarblerInputs(0)
	c := b.EvaluatorInputs(1)[0]
	for _, addends := range [][2]int{{Const1, Const0}, {Const0, Const1}, {Const1, Const1}, {Const0, Const0}} {
		sum, carry := b.fullAdder(addends[0], addends[1], c)
		b.Outputs(sum, carry)
	}
	ckt := b.MustBuild()
	if got := ckt.Stats().ANDs; got != 0 {
		t.Fatalf("constant addends emitted %d ANDs", got)
	}
	for _, v := range []bool{false, true} {
		out := evalBits(t, ckt, nil, []bool{v})
		want := []bool{!v, v, !v, v, v, true, v, false}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("c=%v: (sum, carry) bits %v, want %v", v, out, want)
			}
		}
	}

	b = NewBuilder()
	b.GarblerInputs(0)
	c = b.EvaluatorInputs(1)[0]
	b.Outputs(b.gate(AND, b.NOT(c), c))
	if w := auditANDs(b.MustBuild()); w != (andWaste{complementary: 1}) {
		t.Fatalf("audit %+v, want one complementary AND", w)
	}
}

// checkMACRounds runs c round by round from accumulator acc and checks
// every output against acc + Σ x·y mod 2^AccWidth. Products are formed
// in 64-bit wrapping arithmetic, which agrees with both signednesses
// modulo 2^AccWidth ≤ 2^64.
func checkMACRounds(t testing.TB, c *Circuit, cfg MACConfig, acc int64, xs, ys []int64) {
	t.Helper()
	mask := uint64(1)<<uint(cfg.AccWidth) - 1 // all ones at 64: the shift gives 0
	state := Int64ToBits(acc, cfg.AccWidth)
	want := uint64(acc)
	for r := range xs {
		want += uint64(xs[r] * ys[r])
		out, next, err := c.EvalRound(Int64ToBits(xs[r], cfg.Width), Int64ToBits(ys[r], cfg.Width), state)
		if err != nil {
			t.Fatal(err)
		}
		if got := BitsToUint64(out); got != want&mask {
			t.Fatalf("%+v acc=%d round %d: x=%d y=%d gives %#x, want %#x", cfg, acc, r, xs[r], ys[r], got, want&mask)
		}
		state = next
	}
}

// TestMACMatchesPlaintext checks the folded MAC against plaintext, with
// the accumulator as wide as the product and 4 bits wider (64 at most):
// at b = 1…5 one round for every operand pair, including
// −2^{b−1}·−2^{b−1}, from every accumulator up to 8 bits and from the
// accumulator edges above, plus a 3-round chain per pair; at b = 8, 16,
// 32 random chains that include the operand edges.
func TestMACMatchesPlaintext(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, width := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
		for _, signed := range []bool{false, true} {
			for _, accWidth := range []int{2 * width, min(2*width+4, 64)} {
				cfg := MACConfig{Width: width, AccWidth: accWidth, Signed: signed}
				c := MustMAC(cfg)
				lo, hi := int64(0), int64(1)<<width-1
				if signed {
					lo, hi = -(int64(1) << (width - 1)), int64(1)<<(width-1)-1
				}
				if width > 5 {
					xs, ys := edgeChain(rng, lo, hi)
					checkMACRounds(t, c, cfg, rng.Int63(), xs, ys)
					continue
				}
				accs := []int64{0, 1, -1, 1<<(accWidth-1) - 1, -1 << (accWidth - 1)}
				if accWidth <= 8 {
					accs = accs[:0]
					for acc := int64(0); acc < 1<<accWidth; acc++ {
						accs = append(accs, acc)
					}
				}
				for x := lo; x <= hi; x++ {
					for y := lo; y <= hi; y++ {
						for _, acc := range accs {
							checkMACRounds(t, c, cfg, acc, []int64{x}, []int64{y})
						}
						checkMACRounds(t, c, cfg, 0, []int64{x, y, x}, []int64{y, x, hi})
					}
				}
			}
		}
	}
}

// edgeChain draws a 64-round chain of operands in [lo, hi] whose first
// rounds pair the range's edges.
func edgeChain(rng *rand.Rand, lo, hi int64) (xs, ys []int64) {
	edges := []int64{lo, hi, 0, 1, lo + 1, hi - 1}
	draw := func(i int) int64 {
		if i < len(edges) {
			return edges[i]
		}
		return lo + rng.Int63n(hi-lo+1)
	}
	const rounds = 64
	xs, ys = make([]int64, rounds), make([]int64, rounds)
	for i := range xs {
		xs[i], ys[i] = draw(i), draw((i*5+3)%rounds)
	}
	return xs, ys
}

// FuzzMACMatchesPlaintext checks one MAC round at any width 1…32,
// either signedness and any accumulator width 2b…64, from any
// accumulator.
func FuzzMACMatchesPlaintext(f *testing.F) {
	f.Add(uint8(8), true, uint8(0), int64(-128), int64(127), int64(0))
	f.Add(uint8(16), false, uint8(4), int64(0xffff), int64(0xffff), int64(-1))
	f.Add(uint8(32), true, uint8(0), int64(-1)<<31, int64(-1)<<31, int64(1)<<62)
	f.Add(uint8(3), false, uint8(7), int64(2), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, width uint8, signed bool, extra uint8, x, y, acc int64) {
		cfg := MACConfig{Width: 1 + int(width%32), Signed: signed}
		cfg.AccWidth = 2*cfg.Width + int(extra)%(65-2*cfg.Width)
		c, ok := macCache.Load(cfg)
		if !ok {
			c, _ = macCache.LoadOrStore(cfg, MustMAC(cfg))
		}
		// Operands are the low Width bits, read back in the MAC's own
		// signedness so the plaintext product matches.
		read := func(v int64) int64 {
			bits := Int64ToBits(v, cfg.Width)
			if signed {
				return BitsToInt64(bits)
			}
			return int64(BitsToUint64(bits))
		}
		checkMACRounds(t, c.(*Circuit), cfg, acc, []int64{read(x)}, []int64{read(y)})
	})
}

var macCache sync.Map // MACConfig → *Circuit

func TestSequentialMACUnsigned(t *testing.T) {
	cfg := MACConfig{Width: 8, AccWidth: 24}
	c := MustMAC(cfg)
	rng := rand.New(rand.NewSource(1))
	var state []bool
	var want uint64
	for round := 0; round < 20; round++ {
		x := uint64(rng.Intn(256))
		a := uint64(rng.Intn(256))
		want = (want + x*a) & (1<<24 - 1)
		out, next, err := c.EvalRound(Uint64ToBits(x, 8), Uint64ToBits(a, 8), state)
		if err != nil {
			t.Fatal(err)
		}
		if got := BitsToUint64(out); got != want {
			t.Fatalf("round %d: acc = %d, want %d", round, got, want)
		}
		state = next
	}
}

func TestSequentialMACSigned(t *testing.T) {
	cfg := MACConfig{Width: 8, AccWidth: 20, Signed: true}
	c := MustMAC(cfg)
	rng := rand.New(rand.NewSource(7))
	var state []bool
	var want int64
	mask := int64(1)<<20 - 1
	for round := 0; round < 30; round++ {
		x := int64(rng.Intn(256) - 128)
		a := int64(rng.Intn(256) - 128)
		want += x * a
		out, next, err := c.EvalRound(Int64ToBits(x, 8), Int64ToBits(a, 8), state)
		if err != nil {
			t.Fatal(err)
		}
		if got := BitsToInt64(out); got&mask != want&mask {
			t.Fatalf("round %d: acc = %d, want %d", round, got, want)
		}
		state = next
	}
}

func TestMACCombinationalMatchesSequentialStep(t *testing.T) {
	cfg := MACConfig{Width: 8, AccWidth: 16, Signed: true}
	comb, err := MACCombinational(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		x := int64(rng.Intn(256) - 128)
		a := int64(rng.Intn(256) - 128)
		acc := int64(rng.Intn(1<<16) - 1<<15)
		g := append(Int64ToBits(x, 8), Int64ToBits(acc, 16)...)
		out, err := comb.Eval(g, Int64ToBits(a, 8))
		if err != nil {
			t.Fatal(err)
		}
		want := (acc + x*a) & (1<<16 - 1)
		if got := BitsToInt64(out) & (1<<16 - 1); got != want {
			t.Fatalf("comb MAC(%d,%d,%d) = %d, want %d", x, a, acc, got, want)
		}
	}
}

func TestMACSerialAndTreeAgree(t *testing.T) {
	tree := MustMAC(MACConfig{Width: 8, AccWidth: 16})
	serial := MustMAC(MACConfig{Width: 8, AccWidth: 16, SerialMultiplier: true})
	rng := rand.New(rand.NewSource(11))
	var st1, st2 []bool
	for round := 0; round < 10; round++ {
		x := Uint64ToBits(uint64(rng.Intn(256)), 8)
		a := Uint64ToBits(uint64(rng.Intn(256)), 8)
		o1, n1, err := tree.EvalRound(x, a, st1)
		if err != nil {
			t.Fatal(err)
		}
		o2, n2, err := serial.EvalRound(x, a, st2)
		if err != nil {
			t.Fatal(err)
		}
		if BitsToUint64(o1) != BitsToUint64(o2) {
			t.Fatalf("round %d: tree %d != serial %d", round, BitsToUint64(o1), BitsToUint64(o2))
		}
		st1, st2 = n1, n2
	}
}

func TestMACStatsScaleWithWidth(t *testing.T) {
	prev := 0
	for _, w := range []int{8, 16, 32} {
		c := MustMAC(MACConfig{Width: w, AccWidth: 2 * w, Signed: true})
		ands := c.Stats().ANDs
		if ands <= prev {
			t.Fatalf("width %d MAC has %d ANDs, not more than previous %d", w, ands, prev)
		}
		prev = ands
	}
}

func TestMustMACPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustMAC with bad config did not panic")
		}
	}()
	MustMAC(MACConfig{Width: 0, AccWidth: 0})
}
