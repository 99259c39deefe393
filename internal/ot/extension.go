package ot

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"maxelerator/internal/gchash"
	"maxelerator/internal/label"
	"maxelerator/internal/wire"
)

// Kappa is the computational security parameter: the number of base
// OTs and the column count of the IKNP extension matrix.
const Kappa = 128

// The extension kernel. A batch of m transfers is a Kappa×m bit matrix
// held column-major — column i is the next ⌈m/8⌉ bytes of column PRG
// i, the layout the u matrix has on the wire — and consumed row by row.
// A column PRG is AES in counter mode keyed by a 16-byte base-OT seed,
// from a zero counter block: both parties expand the same seed to the
// same stream and consume equal amounts per batch, so an endpoint's
// columns are one gchash.Columns, read in lockstep. Row j is hashed by
// gchash.HashRows under the global index j, eight rows a call. Two
// sizes fix the kernel's working memory:
const (
	// chunkBytes is the sender's strip-mining step: it expands, masks
	// and transposes 8·chunkBytes transfers at a time, so its matrix
	// scratch is Kappa·chunkBytes (16 KiB) whatever the batch. Each
	// column's bytes do not depend on how its reads are split, so
	// chunking over transfers draws the same bytes from each.
	chunkBytes = 128
	// RetainLabels caps the scratch that must span a whole batch (the
	// receiver's t and u matrices, the sender's ciphertext frame, 16 B
	// to 32 B per transfer each): buffers sized for a larger batch are
	// dropped when it completes, so an idle session holds at most
	// 32·RetainLabels + Kappa·chunkBytes bytes (272 KiB) of scratch.
	// Callers that keep a per-batch buffer of their own across batches
	// (choice bits, label pairs) follow the same rule.
	RetainLabels = 8192
)

// transpose extracts rows 8·strip … 8·strip+7 of a column-major bit
// matrix: column i occupies cols[i·stride:(i+1)·stride], bit j of a
// column is bit j%8 of its byte j/8, and bit i of a row is bit i%8 of
// its byte i/8. Eight columns' strip bytes are gathered into a uint64
// and transposed as an 8×8 bit block; the eight result bytes are byte
// i/8 of the eight rows.
func transpose(cols []byte, stride, strip int, rows *[8]label.Label) {
	for g := 0; g < Kappa/8; g++ {
		c := cols[8*g*stride+strip:]
		x := uint64(c[0]) | uint64(c[stride])<<8 | uint64(c[2*stride])<<16 | uint64(c[3*stride])<<24 |
			uint64(c[4*stride])<<32 | uint64(c[5*stride])<<40 | uint64(c[6*stride])<<48 | uint64(c[7*stride])<<56
		t := (x ^ x>>7) & 0x00aa00aa00aa00aa
		x ^= t ^ t<<7
		t = (x ^ x>>14) & 0x0000cccc0000cccc
		x ^= t ^ t<<14
		t = (x ^ x>>28) & 0x00000000f0f0f0f0
		x ^= t ^ t<<28
		for k := range rows {
			rows[k][g] = byte(x >> (8 * k))
		}
	}
}

// xorColumns XORs column i of src, src[i·stride:][:n], masked by
// mask[i], into column i of dst, dst[i·n:(i+1)·n], for the Kappa
// columns: a byte a column at the per-round cadence (n = 1), a word at
// a time otherwise, and no call per column. A stride of 0 XORs the one
// src into every column.
func xorColumns(dst []byte, n int, src []byte, stride int, mask *[Kappa]byte) {
	if n == 1 {
		for i, m := range mask {
			dst[i] ^= src[i*stride] & m
		}
		return
	}
	for i, m := range mask {
		m8 := uint64(m) * 0x0101010101010101
		d, c := dst[i*n:(i+1)*n], src[i*stride:][:n]
		k := 0
		for ; k+8 <= n; k += 8 {
			binary.LittleEndian.PutUint64(d[k:], binary.LittleEndian.Uint64(d[k:])^binary.LittleEndian.Uint64(c[k:])&m8)
		}
		for ; k < n; k++ {
			d[k] ^= c[k] & m
		}
	}
}

// allColumns is the mask that XORs every column.
var allColumns = func() (m [Kappa]byte) {
	for i := range m {
		m[i] = 0xff
	}
	return m
}()

// scratch returns buf resized to n bytes, reallocating only when it is
// too small. The contents are unspecified.
func scratch(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// ExtensionSender is the message-pair holder (in GC terms: the
// garbler) of an IKNP session. After the one-time base phase it can
// send any number of batches with symmetric crypto only. Not safe for
// concurrent use: batches run one at a time over scratch the sender
// owns.
type ExtensionSender struct {
	conn    wire.Conn
	sMask   [Kappa]byte // 0xff where s_i is 1, 0 where it is 0
	sPacked label.Label
	columns *gchash.Columns
	index   uint64

	q   []byte // one chunk of the q matrix, column-major
	out []byte // the batch's ciphertext frame
	// A strip's rows and their two hashes. gchash.HashRows's portable
	// path makes them escape, so they live here, on the heap already.
	rows, h0, h1 [8]label.Label
}

// NewExtensionSender runs the base phase: the extension sender acts as
// base-OT *receiver* with κ random choice bits, obtaining one PRG seed
// per column.
func NewExtensionSender(conn wire.Conn, rnd io.Reader) (*ExtensionSender, error) {
	es := &ExtensionSender{conn: conn}
	var sByte Message
	if _, err := io.ReadFull(rnd, sByte[:]); err != nil {
		return nil, fmt.Errorf("ot: drawing extension secret: %w", err)
	}
	es.sPacked = label.Label(sByte)
	choices := make([]bool, Kappa)
	for i := range choices {
		choices[i] = sByte[i/8]>>(uint(i)%8)&1 == 1
		if choices[i] {
			es.sMask[i] = 0xff
		}
	}
	seeds, err := BaseReceive(conn, rnd, choices)
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase (sender): %w", err)
	}
	es.columns = gchash.NewColumns(seeds)
	return es, nil
}

// SendLabels transfers one wire-label pair per evaluator input bit
// through the extension session: the receiver learns exactly the label
// matching each of its choice bits. pairs is read in place and not
// retained. The answer goes into es.out, reused by the next batch,
// which wire.Conn's SendMsg contract allows, unless the batch is larger
// than RetainLabels: then the frame is a buffer of its own that the
// sender does not keep. An empty batch has no frame.
func SendLabels(es *ExtensionSender, pairs []label.Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	out, err := AppendAnswer(es, es.out[:0], pairs)
	if err != nil {
		return err
	}
	if len(pairs) <= RetainLabels {
		es.out = out
	}
	if err := es.conn.SendMsg(out); err != nil {
		return fmt.Errorf("ot: extension sender shipping ciphertexts: %w", err)
	}
	return nil
}

// AppendAnswer is SendLabels without the send: it reads the receiver's
// u matrix and appends the ciphertext frame that answers it, 32 bytes a
// pair, to dst, which it returns. The frame is the caller's, to send on
// the same connection before the sender's next batch; an empty batch
// reads and appends nothing, and has no frame. The received u matrix is
// recycled once it is consumed.
func AppendAnswer(es *ExtensionSender, dst []byte, pairs []label.Pair) ([]byte, error) {
	m := len(pairs)
	if m == 0 {
		return dst, nil
	}
	mBytes := (m + 7) / 8

	u, err := es.conn.RecvMsg()
	if err != nil {
		return nil, fmt.Errorf("ot: extension sender reading u matrix: %w", err)
	}
	defer wire.Recycle(u)
	if len(u) != Kappa*mBytes {
		return nil, fmt.Errorf("ot: extension sender got %d u bytes, want %d", len(u), Kappa*mBytes)
	}

	n := len(dst)
	dst = slices.Grow(dst, 32*m)[:n+32*m]
	out := dst[n:]
	rows, h0, h1 := &es.rows, &es.h0, &es.h1
	for base := 0; base < mBytes; base += chunkBytes {
		cb := min(chunkBytes, mBytes-base)
		// q_i = PRG(k_i^{s_i}) ⊕ s_i·u_i, so row j is t_j ⊕ r_j·s.
		es.q = scratch(es.q, Kappa*cb)
		es.columns.Fill(es.q, cb)
		xorColumns(es.q, cb, u[base:], mBytes, &es.sMask)
		for strip := 0; strip < cb; strip++ {
			transpose(es.q, cb, strip, rows)
			first := 8 * (base + strip)
			idx := es.index + uint64(first)
			gchash.HashRows(rows, idx, h0)
			for k := range rows {
				rows[k].XorInto(&es.sPacked, &rows[k])
			}
			gchash.HashRows(rows, idx, h1)
			for k := 0; k < min(8, m-first); k++ {
				j := first + k
				pairs[j].False.XorInto(&h0[k], (*label.Label)(out[32*j:]))
				pairs[j].True.XorInto(&h1[k], (*label.Label)(out[32*j+16:]))
			}
		}
	}
	es.index += uint64(m)
	return dst, nil
}

// ExtensionReceiver is the choice-bit holder (the GC evaluator) of an
// IKNP session. A batch is two halves: RequestLabels builds its u
// matrix, which the caller sends, and FinishLabels reads the sender's
// ciphertexts for it. Requests must be issued in order on one
// goroutine, over scratch the receiver owns, and their u frames sent in
// that order; finishes must run in the same order, on that goroutine or
// on at most one other. A receiver may therefore run any number of requests ahead of
// its finishes, and send their u frames together: a u matrix depends
// on nothing the sender says.
type ExtensionReceiver struct {
	conn  wire.Conn
	col0  *gchash.Columns // under the seeds k_i^0
	col1  *gchash.Columns // under the seeds k_i^1
	index uint64

	r    []byte         // the batch's packed choice bits
	t    []byte         // the batch's t matrix, column-major
	u    []byte         // ReceiveLabels' u frame
	rows [8]label.Label // a strip of t's rows, on the heap as ExtensionSender's
}

// NewExtensionReceiver runs the base phase: the extension receiver
// acts as base-OT *sender* with κ random seed pairs.
func NewExtensionReceiver(conn wire.Conn, rnd io.Reader) (*ExtensionReceiver, error) {
	er := &ExtensionReceiver{conn: conn}
	seedPairs := make([][2]Message, Kappa)
	for i := range seedPairs {
		if _, err := io.ReadFull(rnd, seedPairs[i][0][:]); err != nil {
			return nil, fmt.Errorf("ot: drawing seed: %w", err)
		}
		if _, err := io.ReadFull(rnd, seedPairs[i][1][:]); err != nil {
			return nil, fmt.Errorf("ot: drawing seed: %w", err)
		}
	}
	if err := BaseSend(conn, rnd, seedPairs); err != nil {
		return nil, fmt.Errorf("ot: extension base phase (receiver): %w", err)
	}
	keys0, keys1 := make([]Message, Kappa), make([]Message, Kappa)
	for i, seeds := range seedPairs {
		keys0[i], keys1[i] = seeds[0], seeds[1]
	}
	er.col0, er.col1 = gchash.NewColumns(keys0), gchash.NewColumns(keys1)
	return er, nil
}

// ReceiveLabels obtains the active labels for the receiver's input
// bits: RequestLabels into er.u, the u frame's send, then FinishLabels.
// er.u is reused by the next batch, which wire.Conn's SendMsg contract
// allows, unless the batch is larger than RetainLabels. The returned
// slice is the caller's.
func ReceiveLabels(er *ExtensionReceiver, choices []bool) ([]label.Label, error) {
	if len(choices) == 0 {
		return nil, nil
	}
	u, p := RequestLabels(er, er.u[:0], choices)
	if len(choices) <= RetainLabels {
		er.u = u
	}
	if err := er.conn.SendMsg(u); err != nil {
		return nil, fmt.Errorf("ot: extension receiver sending u matrix: %w", err)
	}
	return FinishLabels(er, p)
}

// Pending is a batch whose u matrix is built: its choice bits and row
// pads H(j, t_j), which FinishLabels unmasks into the chosen labels
// once the sender has answered the u matrix.
type Pending struct {
	choices []bool
	pads    []label.Label
}

// RequestLabels is the receiver's first half of one batch: it draws t
// and u for the receiver's input bits, appends u — the batch's u frame,
// Kappa·⌈m/8⌉ bytes — to dst and returns it, hashes the row pads and
// advances the index. It sends nothing: the caller sends the frame, in
// request order, and may send several requests' frames in one write.
// choices must not change until FinishLabels; see ExtensionReceiver for
// the order the two halves keep. An empty batch appends nothing and has
// no frame. The pads are the batch's only allocation here, besides
// dst's growth.
func RequestLabels(er *ExtensionReceiver, dst []byte, choices []bool) ([]byte, Pending) {
	m := len(choices)
	if m == 0 {
		return dst, Pending{}
	}
	mBytes := (m + 7) / 8
	if m > RetainLabels {
		defer func() { er.r, er.t = nil, nil }()
	}

	er.r = scratch(er.r, mBytes)
	clear(er.r)
	for j, c := range choices {
		if c {
			er.r[j/8] |= 1 << (uint(j) % 8)
		}
	}

	// t_i = PRG(k_i^0), u_i = t_i ⊕ PRG(k_i^1) ⊕ r.
	er.t = scratch(er.t, Kappa*mBytes)
	n := len(dst)
	dst = slices.Grow(dst, Kappa*mBytes)[:n+Kappa*mBytes]
	u := dst[n:]
	er.col0.Fill(er.t, mBytes)
	er.col1.Fill(u, mBytes)
	subtle.XORBytes(u, u, er.t)
	xorColumns(u, mBytes, er.r, 0, &allColumns)

	// The row pads H(j, t_j) need nothing from the sender, so they are
	// hashed while it hashes its own: a whole strip straight into the
	// pads, the last, short one through rows.
	p := Pending{choices: choices, pads: make([]label.Label, m)}
	rows := &er.rows
	for strip := 0; strip < mBytes; strip++ {
		transpose(er.t, mBytes, strip, rows)
		first := 8 * strip
		idx := er.index + uint64(first)
		if m-first >= 8 {
			gchash.HashRows(rows, idx, (*[8]label.Label)(p.pads[first:]))
			continue
		}
		gchash.HashRows(rows, idx, rows)
		copy(p.pads[first:], rows[:m-first])
	}
	er.index += uint64(m)
	return dst, p
}

// FinishLabels is the receiver's second half of the batch p: it reads
// the sender's ciphertext frame, unmasks the chosen labels in p's pads,
// which it returns, the caller's, and recycles the frame. Of er it
// touches only the connection's receive side.
func FinishLabels(er *ExtensionReceiver, p Pending) ([]label.Label, error) {
	m := len(p.choices)
	if m == 0 {
		return nil, nil
	}
	cts, err := er.conn.RecvMsg()
	if err != nil {
		return nil, fmt.Errorf("ot: extension receiver reading ciphertexts: %w", err)
	}
	defer wire.Recycle(cts)
	if len(cts) != 32*m {
		return nil, fmt.Errorf("ot: extension receiver got %d ciphertext bytes, want %d", len(cts), 32*m)
	}
	for j, c := range p.choices {
		off := 32 * j
		if c {
			off += 16
		}
		p.pads[j] = label.Label(xorMsg(Message(p.pads[j]), Message(cts[off:off+16])))
	}
	return p.pads, nil
}
