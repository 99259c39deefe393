package serial

import (
	mrand "math/rand"
	"testing"

	"maxelerator/internal/circuit"
)

func TestMACSignedValidation(t *testing.T) {
	for _, b := range []int{0, 2, 6, 10} {
		if _, _, err := MACSigned(b); err == nil {
			t.Fatalf("width %d accepted", b)
		}
	}
}

func TestSignedCostsOneExtraAND(t *testing.T) {
	// Baugh–Wooley sign support: two extra AND tables per stage over
	// the unsigned datapath (one correction adder, one carry gate) —
	// 2b+2 total versus the eight mux/negate slots the paper budgets.
	for _, b := range []int{4, 8, 16} {
		_, unsigned := MustMAC(b)
		_, signed := MustMACSigned(b)
		if signed.ANDsPerStage != unsigned.ANDsPerStage+2 {
			t.Fatalf("b=%d: signed %d ANDs vs unsigned %d", b, signed.ANDsPerStage, unsigned.ANDsPerStage)
		}
		if signed.ANDsPerStage != 2*b+2 {
			t.Fatalf("b=%d: signed ANDs/stage = %d, want %d", b, signed.ANDsPerStage, 2*b+2)
		}
	}
}

func TestSignedSingleMACExhaustive4(t *testing.T) {
	ckt, l := MustMACSigned(4)
	for x := int64(-8); x < 8; x++ {
		for a := int64(-8); a < 8; a++ {
			got, err := RunPlainSigned(ckt, l, []int64{x}, []int64{a})
			if err != nil {
				t.Fatal(err)
			}
			if got != x*a {
				t.Fatalf("signed serial 4-bit %d·%d = %d, want %d", x, a, got, x*a)
			}
		}
	}
}

func TestSignedSingleMACRandom8(t *testing.T) {
	ckt, l := MustMACSigned(8)
	rng := mrand.New(mrand.NewSource(3))
	for trial := 0; trial < 60; trial++ {
		x := int64(rng.Intn(256) - 128)
		a := int64(rng.Intn(256) - 128)
		got, err := RunPlainSigned(ckt, l, []int64{x}, []int64{a})
		if err != nil {
			t.Fatal(err)
		}
		if got != x*a {
			t.Fatalf("signed serial 8-bit %d·%d = %d, want %d", x, a, got, x*a)
		}
	}
}

func TestSignedEdgeOperands(t *testing.T) {
	ckt, l := MustMACSigned(8)
	for _, c := range [][2]int64{{-128, -128}, {-128, 127}, {127, -128}, {-1, -1}, {-1, 127}, {0, -128}, {127, 127}} {
		got, err := RunPlainSigned(ckt, l, []int64{c[0]}, []int64{c[1]})
		if err != nil {
			t.Fatal(err)
		}
		want := c[0] * c[1]
		// Accumulation is exact mod 2^{2b}; single products of 8-bit
		// operands always fit in 16 bits two's complement except
		// (-128)² = 16384 which fits too.
		if got != want {
			t.Fatalf("signed %d·%d = %d, want %d", c[0], c[1], got, want)
		}
	}
}

func TestSignedAccumulationAcrossRounds(t *testing.T) {
	ckt, l := MustMACSigned(8)
	rng := mrand.New(mrand.NewSource(4))
	const rounds = 7
	xs := make([]int64, rounds)
	as := make([]int64, rounds)
	var want int64
	for i := range xs {
		xs[i] = int64(rng.Intn(256) - 128)
		as[i] = int64(rng.Intn(256) - 128)
		want += xs[i] * as[i]
	}
	got, err := RunPlainSigned(ckt, l, xs, as)
	if err != nil {
		t.Fatal(err)
	}
	mask := int64(1)<<16 - 1
	if got&mask != want&mask {
		t.Fatalf("signed dot product = %d, want %d (mod 2^16)", got, want)
	}
}

func TestSignedRunPlainValidation(t *testing.T) {
	ckt, l := MustMACSigned(4)
	if _, err := RunPlainSigned(ckt, l, []int64{1}, []int64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := RunPlainSigned(ckt, l, []int64{8}, []int64{1}); err == nil {
		t.Fatal("out-of-range operand accepted")
	}
}

func TestSignedStageInputs(t *testing.T) {
	_, l := MustMACSigned(8)
	for n := 0; n < l.StagesPerMAC; n++ {
		isLast, vj, corr, notFirst := l.SignedStageInputs(n)
		if (isLast) != (n == 7) {
			t.Fatalf("stage %d isLast=%v", n, isLast)
		}
		if vj != (n >= 1 && n <= 7) {
			t.Fatalf("stage %d vj=%v", n, vj)
		}
		if corr != (n == 8 || n == 15) {
			t.Fatalf("stage %d corr=%v", n, corr)
		}
		if notFirst != (n != 0) {
			t.Fatalf("stage %d notFirst=%v", n, notFirst)
		}
	}
}

func TestGarbledSignedSerialMAC(t *testing.T) {
	// Full garbled run of the signed datapath: stage-by-stage
	// sequential GC with the flags as garbler inputs.
	ckt, l := MustMACSigned(4)
	next := stages(t, ckt)
	xs := []int64{-3, 7}
	as := []int64{5, -6}
	want := int64(-3*5 + 7*-6)

	var lastRound []bool
	for r := range xs {
		xBits := circuit.Int64ToBits(xs[r], l.Width)
		lastRound = lastRound[:0]
		for n := 0; n < l.StagesPerMAC; n++ {
			isLast, vj, corr, notFirst := l.SignedStageInputs(n)
			g := append(append([]bool{}, xBits...), isLast, vj, corr, notFirst)
			aBits := l.StageInputs(uint64(as[r])&(1<<uint(l.Width)-1), n)
			lastRound = append(lastRound, next(g, aBits)[0])
		}
	}
	if got := circuit.BitsToInt64(lastRound[:2*l.Width]); got != want {
		t.Fatalf("garbled signed serial dot product = %d, want %d", got, want)
	}
}
