package gchash

import (
	"encoding/binary"

	"maxelerator/internal/label"
)

// rowKey is the public fixed key of the OT extension's row hash. It is
// not fixedKey, so the row hash's permutation is not the garbling
// hash's, and no query the OT makes is one the garbler makes.
var rowKey = [16]byte{
	0x4d, 0x41, 0x58, 0x65, 0x6c, 0x65, 0x72, 0x61, // "MAXelera"
	0x74, 0x6f, 0x72, 0x2d, 0x54, 0x43, 0x43, 0x52, // "tor-TCCR"
}

var (
	rowKeys   = expandKey(rowKey)
	rowCipher = mustCipher(rowKey)
)

// HashRows sets h[k] = H(j+k, x[k]) for k < 8, j+k modulo 2⁶⁴: the
// tweakable correlation-robust hash of Guo, Katz, Wang and Yu
// ("Efficient and Secure Multiparty Computation from Fixed-Key Block
// Ciphers", IEEE S&P 2020, §7),
//
//	H(i, x) = π(π(x) ⊕ i) ⊕ π(x),
//
// with π AES-128 under rowKey and the tweak i little-endian in bytes
// 0..7. It is the IKNP extension's row hash, eight transposed rows a
// call; on amd64 the eight blocks of each π go through AES-NI
// together. x and h may be the same array. The portable path hands
// both to crypto/aes, so they escape: callers keep them in memory that
// is on the heap already.
func HashRows(x *[8]label.Label, j uint64, h *[8]label.Label) { hashRows(x, j, h) }

// hashRowsGo is the portable HashRows: the fallback, and the oracle
// the kernel is tested against. It computes in h, so that nothing new
// reaches the cipher.
func hashRowsGo(x *[8]label.Label, j uint64, h *[8]label.Label) {
	for k := range x {
		rowCipher.Encrypt(h[k][:], x[k][:])
		p := h[k]
		binary.LittleEndian.PutUint64(h[k][:8], binary.LittleEndian.Uint64(h[k][:8])^(j+uint64(k)))
		rowCipher.Encrypt(h[k][:], h[k][:])
		h[k].XorInto(&p, &h[k])
	}
}
