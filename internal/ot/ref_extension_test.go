package ot

// The extension as it stood before the kernel rewrite, kept as the
// oracle TestExtensionTranscriptMatchesReference compares against:
// Send, Receive, nextPad and rowHash are the old bodies verbatim (a
// one-byte-at-a-time column read, a bit-at-a-time transpose, a hashed
// row through sha256.New), renamed. A reference endpoint takes over a
// kernel endpoint's freshly set-up session, so the base phase is the
// one implementation.

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"maxelerator/internal/gchash"
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
	ref := &refSender{conn: es.conn, s: es.s, sPacked: es.sPacked}
	for i := range es.columns {
		ref.columns[i] = refStream(&es.columns[i])
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
	for i := range er.col0 {
		ref.col0[i] = refStream(&er.col0[i])
		ref.col1[i] = refStream(&er.col1[i])
	}
	return ref
}

// refStream is crypto/cipher's AES-CTR stream, from a zero IV, over
// the block cipher of the column PRG c, which must not have been read
// yet.
func refStream(c *gchash.CTR) cipher.Stream {
	return cipher.NewCTR(c.Block(), make([]byte, aes.BlockSize))
}

func refNextPad(s cipher.Stream, n int) []byte {
	buf := make([]byte, n)
	s.XORKeyStream(buf, buf)
	return buf
}

func refRowHash(index uint64, row Message) Message {
	h := sha256.New()
	var idx [8]byte
	binary.BigEndian.PutUint64(idx[:], index)
	h.Write(idx[:])
	h.Write(row[:])
	var out Message
	copy(out[:], h.Sum(nil))
	return out
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
