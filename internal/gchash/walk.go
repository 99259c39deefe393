package gchash

// walkPath names one implementation of GarbleProgram and EvalProgram.
// All three give the same bytes (TestProgramWalkMatchesPortable).
type walkPath uint8

const (
	walkPortable walkPath = iota // garbleProgramGo and evalProgramGo, through crypto/aes
	walkSSE                      // SSE2 + AES-NI, hashand_amd64.s
	walkVAES                     // VAES on zmm, vwalk_amd64.s
)

func (p walkPath) String() string {
	return [...]string{"portable", "sse", "vaes"}[p]
}

// walk is the implementation the program walks run: bestWalk, the
// fastest this host supports. Tests set it to run every path the host
// supports; nothing else does.
var walk = bestWalk

// hostWalks lists the paths this host supports, portable first. Each
// path needs what the one before it needs, so they are the paths up to
// bestWalk.
func hostWalks() []walkPath {
	var ps []walkPath
	for p := walkPortable; p <= bestWalk; p++ {
		ps = append(ps, p)
	}
	return ps
}

// pickWalk is the probe's verdict: the VAES walk where AES-NI is there
// and vaesWalkUsable holds, else the SSE walk where AES-NI is there,
// else the portable one.
func pickWalk(aesni, vaes bool) walkPath {
	switch {
	case aesni && vaes:
		return walkVAES
	case aesni:
		return walkSSE
	}
	return walkPortable
}

// The CPUID and XCR0 bits the VAES walk needs: leaf 7's AVX512F and
// AVX512BW (EBX) and VAES (ECX), and the OS saving the SSE, AVX,
// opmask and both halves of the ZMM state.
const (
	cpuidAVX512F  = 1 << 16 // leaf 7, EBX
	cpuidAVX512BW = 1 << 30 // leaf 7, EBX
	cpuidVAES     = 1 << 9  // leaf 7, ECX
	xcr0ZMM       = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
)

// vaesWalkUsable reports whether a CPU whose CPUID leaf 7 (subleaf 0)
// reads ebx7 and ecx7, under an OS whose XCR0 reads xcr0, runs the VAES
// walk. The probe passes zero for a leaf the CPU lacks and for XCR0
// when the OS has not enabled XGETBV.
func vaesWalkUsable(ebx7, ecx7, xcr0 uint32) bool {
	return ebx7&(cpuidAVX512F|cpuidAVX512BW) == cpuidAVX512F|cpuidAVX512BW &&
		ecx7&cpuidVAES != 0 &&
		xcr0&xcr0ZMM == xcr0ZMM
}
