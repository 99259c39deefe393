package ot

// The extension as it stood before the kernel rewrite, kept as the
// oracle TestExtensionTranscriptMatchesReference compares against:
// Send, Receive and nextPad are the old bodies verbatim (a
// one-byte-at-a-time column read from crypto/cipher's CTR, a
// bit-at-a-time transpose), renamed. The row hash is protocol v8's,
// the fixed-key TCCR hash, one row at a time through crypto/aes alone.
// A reference endpoint takes over a kernel endpoint's freshly set-up
// session, so the base phase is the one implementation.

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"fmt"

	"maxelerator/internal/wire"
)

type refSender struct {
	conn    wire.Conn
	s       [Kappa]bool
	sPacked Message
	columns [Kappa]cipher.Stream
	index   uint64
}

// newRefSender takes over es, which must not have sent a batch yet.
func newRefSender(es *ExtensionSender) *refSender {
	ref := &refSender{conn: es.conn, sPacked: Message(es.sPacked)}
	for i := range ref.columns {
		ref.s[i] = es.sMask[i] != 0
		ref.columns[i] = refStream(es.columns.Key(i))
	}
	return ref
}

type refReceiver struct {
	conn  wire.Conn
	col0  [Kappa]cipher.Stream
	col1  [Kappa]cipher.Stream
	index uint64
}

// newRefReceiver takes over er, which must not have received a batch
// yet.
func newRefReceiver(er *ExtensionReceiver) *refReceiver {
	ref := &refReceiver{conn: er.conn}
	for i := range ref.col0 {
		ref.col0[i] = refStream(er.col0.Key(i))
		ref.col1[i] = refStream(er.col1.Key(i))
	}
	return ref
}

// refStream is crypto/cipher's AES-CTR stream, from a zero IV, under
// a column PRG's key.
func refStream(key [16]byte) cipher.Stream {
	return cipher.NewCTR(refCipher(key), make([]byte, aes.BlockSize))
}

func refCipher(key [16]byte) cipher.Block {
	b, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err)
	}
	return b
}

func refNextPad(s cipher.Stream, n int) []byte {
	buf := make([]byte, n)
	s.XORKeyStream(buf, buf)
	return buf
}

// refRowPi is π of the row hash: AES-128 under the fixed public key
// "MAXelerator-TCCR", spelled out here rather than taken from gchash.
var refRowPi = refCipher([16]byte{'M', 'A', 'X', 'e', 'l', 'e', 'r', 'a', 't', 'o', 'r', '-', 'T', 'C', 'C', 'R'})

// refRowHash is the tweakable correlation-robust hash of Guo, Katz,
// Wang and Yu, H(j, x) = π(π(x) ⊕ j) ⊕ π(x), the index j little-endian
// in bytes 0..7.
func refRowHash(index uint64, row Message) Message {
	var p, q, out Message
	refRowPi.Encrypt(p[:], row[:])
	q = p
	binary.LittleEndian.PutUint64(q[:8], binary.LittleEndian.Uint64(q[:8])^index)
	refRowPi.Encrypt(out[:], q[:])
	return xorMsg(out, p)
}

func (es *refSender) Send(pairs [][2]Message) error {
	m := len(pairs)
	if m == 0 {
		return nil
	}
	mBytes := (m + 7) / 8

	u, err := es.conn.RecvMsg()
	if err != nil {
		return fmt.Errorf("ot: extension sender reading u matrix: %w", err)
	}
	if len(u) != Kappa*mBytes {
		return fmt.Errorf("ot: extension sender got %d u bytes, want %d", len(u), Kappa*mBytes)
	}

	// q_i = PRG(k_i^{s_i}) ⊕ s_i·u_i, so row j is t_j ⊕ r_j·s.
	q := make([][]byte, Kappa)
	for i := 0; i < Kappa; i++ {
		col := refNextPad(es.columns[i], mBytes)
		if es.s[i] {
			ui := u[i*mBytes : (i+1)*mBytes]
			for k := range col {
				col[k] ^= ui[k]
			}
		}
		q[i] = col
	}

	out := make([]byte, 0, 32*m)
	for j := 0; j < m; j++ {
		var row Message
		for i := 0; i < Kappa; i++ {
			if q[i][j/8]>>(uint(j)%8)&1 == 1 {
				row[i/8] |= 1 << (uint(i) % 8)
			}
		}
		idx := es.index + uint64(j)
		y0 := xorMsg(pairs[j][0], refRowHash(idx, row))
		y1 := xorMsg(pairs[j][1], refRowHash(idx, xorMsg(row, es.sPacked)))
		out = append(out, y0[:]...)
		out = append(out, y1[:]...)
	}
	es.index += uint64(m)
	if err := es.conn.SendMsg(out); err != nil {
		return fmt.Errorf("ot: extension sender shipping ciphertexts: %w", err)
	}
	return nil
}

func (er *refReceiver) Receive(choices []bool) ([]Message, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	mBytes := (m + 7) / 8

	r := make([]byte, mBytes)
	for j, c := range choices {
		if c {
			r[j/8] |= 1 << (uint(j) % 8)
		}
	}

	t := make([][]byte, Kappa)
	u := make([]byte, 0, Kappa*mBytes)
	for i := 0; i < Kappa; i++ {
		t[i] = refNextPad(er.col0[i], mBytes)
		pad1 := refNextPad(er.col1[i], mBytes)
		ui := make([]byte, mBytes)
		for k := range ui {
			ui[k] = t[i][k] ^ pad1[k] ^ r[k]
		}
		u = append(u, ui...)
	}
	if err := er.conn.SendMsg(u); err != nil {
		return nil, fmt.Errorf("ot: extension receiver sending u matrix: %w", err)
	}

	cts, err := er.conn.RecvMsg()
	if err != nil {
		return nil, fmt.Errorf("ot: extension receiver reading ciphertexts: %w", err)
	}
	if len(cts) != 32*m {
		return nil, fmt.Errorf("ot: extension receiver got %d ciphertext bytes, want %d", len(cts), 32*m)
	}

	out := make([]Message, m)
	for j := 0; j < m; j++ {
		var row Message
		for i := 0; i < Kappa; i++ {
			if t[i][j/8]>>(uint(j)%8)&1 == 1 {
				row[i/8] |= 1 << (uint(i) % 8)
			}
		}
		idx := er.index + uint64(j)
		var e Message
		off := 32 * j
		if choices[j] {
			off += 16
		}
		copy(e[:], cts[off:off+16])
		out[j] = xorMsg(e, refRowHash(idx, row))
	}
	er.index += uint64(m)
	return out, nil
}
