package rng

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"math"
	"testing"
)

const streamLen = 20000

func cryptoBits(t *testing.T, n int) []bool {
	t.Helper()
	buf := make([]byte, (n+7)/8)
	if _, err := rand.Read(buf); err != nil {
		t.Fatal(err)
	}
	return unpack(buf, n)
}

// unpack returns the first n bits of buf, least significant bit first.
func unpack(buf []byte, n int) []bool {
	bits := make([]bool, n)
	for i := range bits {
		bits[i] = buf[i/8]>>(uint(i)%8)&1 == 1
	}
	return bits
}

func TestIgamqSanity(t *testing.T) {
	// Q(a, 0) = 1; Q decreases in x; known value Q(0.5, 0.5) ≈ 0.3173
	// (chi-square with 1 df at 1.0).
	if got := igamq(2, 0); got != 1 {
		t.Fatalf("Q(2,0) = %v", got)
	}
	if igamq(3, 1) <= igamq(3, 5) {
		t.Fatal("igamq not decreasing in x")
	}
	if got := igamq(0.5, 0.5); math.Abs(got-0.3173) > 0.001 {
		t.Fatalf("Q(0.5,0.5) = %v, want ≈0.3173", got)
	}
	if !math.IsNaN(igamq(-1, 2)) || !math.IsNaN(igamq(2, -1)) {
		t.Fatal("invalid arguments not rejected")
	}
}

// TestBatteryPassesOnCryptoRand runs the battery on cryptographic bits:
// the AES-128-CTR keystream under the all-zero key and IV. At α = 0.01
// each test rejects one fresh random stream in a hundred, so a stream
// from crypto/rand made this test fail about one run in ten; a fixed
// keystream is just as random to the battery and fails never or always.
func TestBatteryPassesOnCryptoRand(t *testing.T) {
	block, err := aes.NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, streamLen/8)
	cipher.NewCTR(block, make([]byte, 16)).XORKeyStream(buf, buf)
	for _, r := range Battery(unpack(buf, streamLen)) {
		if !r.Pass {
			t.Errorf("%s failed on crypto/rand: p=%v (%s)", r.Name, r.PValue, r.Detail)
		}
	}
}

func TestBatteryFailsOnAllZeros(t *testing.T) {
	bits := make([]bool, streamLen)
	if BatteryPasses(bits) {
		t.Fatal("all-zero stream passed the battery")
	}
	if Monobit(bits).Pass {
		t.Fatal("monobit passed on all zeros")
	}
}

func TestBatteryFailsOnAlternatingBits(t *testing.T) {
	bits := make([]bool, streamLen)
	for i := range bits {
		bits[i] = i%2 == 1
	}
	if Monobit(bits).PValue < Alpha {
		t.Fatal("alternating stream should pass monobit (balanced)")
	}
	if Runs(bits).Pass {
		t.Fatal("runs test passed on alternating stream")
	}
	if Autocorrelation(bits, 1).Pass {
		t.Fatal("lag-1 autocorrelation passed on alternating stream")
	}
}

func TestBatteryFailsOnBiasedStream(t *testing.T) {
	bits := cryptoBits(t, streamLen)
	// 60% ones: AND-in extra ones.
	extra := cryptoBits(t, streamLen)
	for i := range bits {
		if i%5 == 0 {
			bits[i] = bits[i] || extra[i] || true
		}
	}
	if Monobit(bits).Pass {
		t.Fatal("monobit passed on a heavily biased stream")
	}
}

func TestBatteryFailsOnRepeatedBlocks(t *testing.T) {
	// A short repeating pattern is balanced but structured: the poker
	// or autocorrelation test must catch it.
	pattern := []bool{true, true, false, true, false, false, true, false}
	bits := make([]bool, streamLen)
	for i := range bits {
		bits[i] = pattern[i%len(pattern)]
	}
	if Poker(bits).Pass && Autocorrelation(bits, 8).Pass {
		t.Fatal("repeated 8-bit pattern passed both poker and lag-8 autocorrelation")
	}
}

func TestRORNGPassesBattery(t *testing.T) {
	// §5.2: "The entropy of the implemented RNG on our evaluation
	// platform is thoroughly evaluated by NIST battery of randomness
	// tests."
	r := MustNew(Config{Seed: 1})
	bits := r.Bits(streamLen)
	for _, res := range Battery(bits) {
		if !res.Pass {
			t.Errorf("RO RNG failed %s: p=%v (%s)", res.Name, res.PValue, res.Detail)
		}
	}
}

func TestRORNGSeedsReproducible(t *testing.T) {
	a := MustNew(Config{Seed: 7}).Bits(256)
	b := MustNew(Config{Seed: 7}).Bits(256)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	c := MustNew(Config{Seed: 8}).Bits(256)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRORNGSingleOscillatorIsStructured(t *testing.T) {
	// One jittery ring alone has visible structure; the 16-way XOR is
	// what whitens the stream. With low jitter a single RO must fail.
	r := MustNew(Config{Oscillators: 1, JitterSigma: 0.001, Seed: 3})
	bits := r.Bits(streamLen)
	if BatteryPasses(bits) {
		t.Fatal("single low-jitter oscillator passed the battery")
	}
}

func TestRORNGReadPacksBits(t *testing.T) {
	r := MustNew(Config{Seed: 11})
	buf := make([]byte, 64)
	n, err := r.Read(buf)
	if err != nil || n != 64 {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if r.SamplesTaken != 64*8 {
		t.Fatalf("SamplesTaken = %d, want %d", r.SamplesTaken, 64*8)
	}
	allZero := true
	for _, b := range buf {
		if b != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		t.Fatal("Read produced all zeros")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Oscillators: -2}); err == nil {
		t.Fatal("negative oscillator count accepted")
	}
	if _, err := New(Config{JitterSigma: -1}); err == nil {
		t.Fatal("negative jitter accepted")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{Oscillators: -1})
}

func TestBatteryResultFields(t *testing.T) {
	bits := cryptoBits(t, streamLen)
	for _, r := range Battery(bits) {
		if r.Name == "" || r.Detail == "" {
			t.Fatalf("battery result missing metadata: %+v", r)
		}
		if r.Pass != (r.PValue >= Alpha) {
			t.Fatalf("%s: Pass inconsistent with PValue", r.Name)
		}
	}
}

func BenchmarkRORNGBit(b *testing.B) {
	r := MustNew(Config{Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Bit()
	}
}
