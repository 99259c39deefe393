package gchash

import (
	"strings"
	"testing"
)

// forEachWalk runs f as a subtest, named after the path, on every walk
// this host supports, with walk set to it, and logs which ran.
func forEachWalk(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(w walkPath) { walk = w }(walk)
	var ran []string
	for _, p := range hostWalks() {
		walk = p
		t.Run(p.String(), f)
		ran = append(ran, p.String())
	}
	t.Logf("walk paths run: %s", strings.Join(ran, " "))
}

// TestVAESProbe: the VAES walk is picked only on a CPU with VAES,
// AVX512F and AVX512BW under an OS that saves the opmask and ZMM state,
// and only beside AES-NI; without it the SSE walk, without AES-NI the
// portable one.
func TestVAESProbe(t *testing.T) {
	const (
		ebx7 = cpuidAVX512F | cpuidAVX512BW | 1<<3 | 1<<31 // BMI1 and AVX512VL besides
		ecx7 = cpuidVAES | 1<<10                           // VPCLMULQDQ besides
		xcr0 = 0xe7                                        // x87, SSE, AVX, opmask, ZMM
	)
	cases := []struct {
		name             string
		ebx7, ecx7, xcr0 uint32
		aesni            bool
		want             walkPath
	}{
		{"all present", ebx7, ecx7, xcr0, true, walkVAES},
		{"no VAES", ebx7, ecx7 &^ cpuidVAES, xcr0, true, walkSSE},
		{"no AVX512BW", ebx7 &^ cpuidAVX512BW, ecx7, xcr0, true, walkSSE},
		{"no AVX512F", ebx7 &^ cpuidAVX512F, ecx7, xcr0, true, walkSSE},
		{"ZMM state not enabled by the OS", ebx7, ecx7, 0x07, true, walkSSE},
		{"upper ZMM registers not enabled", ebx7, ecx7, xcr0 &^ (1 << 7), true, walkSSE},
		{"no XGETBV (XCR0 read as zero)", ebx7, ecx7, 0, true, walkSSE},
		{"no leaf 7", 0, 0, xcr0, true, walkSSE},
		{"no AES-NI", ebx7, ecx7, xcr0, false, walkPortable},
		{"nothing", 0, 0, 0, false, walkPortable},
	}
	for _, tc := range cases {
		if got := pickWalk(tc.aesni, vaesWalkUsable(tc.ebx7, tc.ecx7, tc.xcr0)); got != tc.want {
			t.Errorf("%s: picked the %v walk, want %v", tc.name, got, tc.want)
		}
	}
	t.Logf("this host: the %v walk", bestWalk)
}
