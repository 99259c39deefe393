package ot

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"maxelerator/internal/wire"
)

// Kappa is the computational security parameter: the number of base
// OTs and the column count of the IKNP extension matrix.
const Kappa = 128

// The extension kernel. A batch of m transfers is a Kappa×m bit matrix
// held column-major — column i is the next ⌈m/8⌉ bytes of PRG i, the
// layout the u matrix has on the wire — and consumed row by row. Three
// sizes fix its working memory:
const (
	// lookahead is how much of each column stream is expanded at a
	// time. A per-round batch takes one byte per column; drawing it from
	// the lookahead costs a copy where a one-byte XORKeyStream costs an
	// AES block and a call through cipher.Stream.
	lookahead = 64
	// chunkBytes is the sender's strip-mining step: it expands, masks
	// and transposes 8·chunkBytes transfers at a time, so its matrix
	// scratch is Kappa·chunkBytes (16 KiB) whatever the batch. The
	// column streams are independent, so chunking over transfers draws
	// the same bytes from each.
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

// colPRG is one column PRG: AES-128 in counter mode, from a zero
// counter block, keyed by a 16-byte base-OT seed and read through the
// lookahead. Both parties expand the same seed to the same stream and
// consume equal amounts per batch; the bytes read do not depend on how
// the reads are split. It runs the counter over its block cipher
// itself: a cipher.NewCTR would keep a second copy of the key schedule,
// and a sender holds Kappa of these, a receiver 2·Kappa.
type colPRG struct {
	block cipher.Block
	ctr   uint64 // counter blocks encrypted so far
	buf   [lookahead]byte
	off   int // next unread byte of buf; lookahead when it is spent
}

func (p *colPRG) init(seed Message) error {
	blk, err := aes.NewCipher(seed[:])
	if err != nil {
		return fmt.Errorf("ot: building PRG: %w", err)
	}
	p.block, p.ctr, p.off = blk, 0, lookahead
	return nil
}

// read fills dst with the next len(dst) bytes of the stream.
func (p *colPRG) read(dst []byte) {
	if len(dst) <= lookahead-p.off {
		p.off += copy(dst, p.buf[p.off:])
		return
	}
	p.refill(dst)
}

// refill is read's path through the cipher: whole lookaheads go
// straight to dst, the rest through a freshly expanded buf.
func (p *colPRG) refill(dst []byte) {
	n := copy(dst, p.buf[p.off:])
	dst = dst[n:]
	if n = len(dst) &^ (lookahead - 1); n > 0 {
		p.keystream(dst[:n])
		dst = dst[n:]
	}
	p.keystream(p.buf[:])
	p.off = copy(dst, p.buf[:])
}

// keystream fills dst, whole blocks, with the stream's next blocks: the
// encryptions of the next counter values, big-endian 128-bit.
func (p *colPRG) keystream(dst []byte) {
	for b := dst; len(b) > 0; b = b[aes.BlockSize:] {
		binary.BigEndian.PutUint64(b, 0)
		binary.BigEndian.PutUint64(b[8:], p.ctr)
		p.ctr++
		p.block.Encrypt(b, b)
	}
}

// transpose extracts rows 8·strip … 8·strip+7 of a column-major bit
// matrix: column i occupies cols[i·stride:(i+1)·stride], bit j of a
// column is bit j%8 of its byte j/8, and bit i of a row is bit i%8 of
// its byte i/8. Eight columns' strip bytes are gathered into a uint64
// and transposed as an 8×8 bit block; the eight result bytes are byte
// i/8 of the eight rows.
func transpose(cols []byte, stride, strip int, rows *[8]Message) {
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

// rowHash is the IKNP row-breaking hash H(j, q): SHA-256 over the
// big-endian index and the row, truncated to one message. The index j
// is global across batches so pads never repeat.
func rowHash(index uint64, row Message) Message {
	var in [8 + len(row)]byte
	binary.BigEndian.PutUint64(in[:8], index)
	copy(in[8:], row[:])
	sum := sha256.Sum256(in[:])
	return Message(sum[:len(row)])
}

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
	s       [Kappa]bool
	sPacked Message
	columns [Kappa]colPRG
	index   uint64

	q   []byte // one chunk of the q matrix, column-major
	out []byte // the batch's ciphertext frame
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
	es.sPacked = sByte
	choices := make([]bool, Kappa)
	for i := range choices {
		choices[i] = sByte[i/8]>>(uint(i)%8)&1 == 1
		es.s[i] = choices[i]
	}
	seeds, err := BaseReceive(conn, rnd, choices)
	if err != nil {
		return nil, fmt.Errorf("ot: extension base phase (sender): %w", err)
	}
	for i, seed := range seeds {
		if err := es.columns[i].init(seed); err != nil {
			return nil, err
		}
	}
	return es, nil
}

// Send transfers one batch of message pairs; the connected receiver
// must call Receive with the same batch size.
func (es *ExtensionSender) Send(pairs [][2]Message) error {
	return ship(es, len(pairs), func(j int) (Message, Message) { return pairs[j][0], pairs[j][1] })
}

// ship is one whole batch of m transfers: answer into es.out, then
// send. es.out is reused by the next batch, which wire.Conn's SendMsg
// contract allows, unless the batch is larger than RetainLabels: then
// the frame is a buffer of its own that the sender does not keep. An
// empty batch has no frame.
func ship[M ~[16]byte](es *ExtensionSender, m int, pair func(j int) (M, M)) error {
	if m == 0 {
		return nil
	}
	out, err := answer(es, es.out[:0], m, pair)
	if err != nil {
		return err
	}
	if m <= RetainLabels {
		es.out = out
	}
	if err := es.conn.SendMsg(out); err != nil {
		return fmt.Errorf("ot: extension sender shipping ciphertexts: %w", err)
	}
	return nil
}

// answer is the sender's half of one batch of m transfers, short of the
// send; pair yields transfer j's two messages. It reads the receiver's
// u matrix and appends the batch's ciphertext frame, 32 bytes a
// transfer, to dst, which it returns; an empty batch reads nothing and
// appends nothing. The received u matrix is recycled once it is
// consumed.
func answer[M ~[16]byte](es *ExtensionSender, dst []byte, m int, pair func(j int) (M, M)) ([]byte, error) {
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
	var rows [8]Message
	for base := 0; base < mBytes; base += chunkBytes {
		cb := min(chunkBytes, mBytes-base)
		// q_i = PRG(k_i^{s_i}) ⊕ s_i·u_i, so row j is t_j ⊕ r_j·s.
		es.q = scratch(es.q, Kappa*cb)
		for i := range es.columns {
			qi := es.q[i*cb : (i+1)*cb]
			es.columns[i].read(qi)
			if es.s[i] {
				subtle.XORBytes(qi, qi, u[i*mBytes+base:])
			}
		}
		for strip := 0; strip < cb; strip++ {
			transpose(es.q, cb, strip, &rows)
			first := 8 * (base + strip)
			for k := 0; k < min(8, m-first); k++ {
				j := first + k
				idx := es.index + uint64(j)
				m0, m1 := pair(j)
				y0 := xorMsg(Message(m0), rowHash(idx, rows[k]))
				y1 := xorMsg(Message(m1), rowHash(idx, xorMsg(rows[k], es.sPacked)))
				copy(out[32*j:], y0[:])
				copy(out[32*j+16:], y1[:])
			}
		}
	}
	es.index += uint64(m)
	return dst, nil
}

// ExtensionReceiver is the choice-bit holder (the GC evaluator) of an
// IKNP session. A batch is two halves: request builds its u matrix,
// which the caller sends, and finish reads the sender's ciphertexts for
// it. Requests must be issued in order on one goroutine, over scratch
// the receiver owns, and their u frames sent in that order; finishes
// must run in the same order, on that goroutine or on at most one
// other. A receiver may therefore run any number of requests ahead of
// its finishes, and send their u frames together: a u matrix depends
// on nothing the sender says.
type ExtensionReceiver struct {
	conn  wire.Conn
	col0  [Kappa]colPRG
	col1  [Kappa]colPRG
	index uint64

	r []byte // the batch's packed choice bits
	t []byte // the batch's t matrix, column-major
	u []byte // receive's u frame
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
	for i := range seedPairs {
		if err := er.col0[i].init(seedPairs[i][0]); err != nil {
			return nil, err
		}
		if err := er.col1[i].init(seedPairs[i][1]); err != nil {
			return nil, err
		}
	}
	return er, nil
}

// Receive obtains the chosen message of each pair in one batch.
func (er *ExtensionReceiver) Receive(choices []bool) ([]Message, error) {
	return receive[Message](er, choices)
}

// receive is one whole batch: request into er.u, send it, then
// finish. er.u is reused by the next batch, which wire.Conn's SendMsg
// contract allows, unless the batch is larger than RetainLabels.
func receive[M ~[16]byte](er *ExtensionReceiver, choices []bool) ([]M, error) {
	m := len(choices)
	if m == 0 {
		return nil, nil
	}
	u, p := request[M](er, er.u[:0], choices)
	if m <= RetainLabels {
		er.u = u
	}
	if err := er.conn.SendMsg(u); err != nil {
		return nil, fmt.Errorf("ot: extension receiver sending u matrix: %w", err)
	}
	return finish(er, p)
}

// Pending is a batch whose u matrix is built: its choice bits and row
// pads H(j, t_j), which finish unmasks into the chosen messages once
// the sender has answered the u matrix.
type Pending[M ~[16]byte] struct {
	choices []bool
	pads    []M
}

// request is the receiver's first half of one batch: it draws t and u,
// appends u — the batch's u frame, Kappa·⌈m/8⌉ bytes — to dst and
// returns it, hashes the row pads and advances the index. It sends
// nothing: the caller sends the frame, in batch order. An empty batch
// appends nothing and has no frame. The pads are the batch's only
// allocation here, besides dst's growth; finish reads choices again.
func request[M ~[16]byte](er *ExtensionReceiver, dst []byte, choices []bool) ([]byte, Pending[M]) {
	m := len(choices)
	if m == 0 {
		return dst, Pending[M]{}
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
	for i := range er.col0 {
		er.col0[i].read(er.t[i*mBytes : (i+1)*mBytes])
		ui := u[i*mBytes : (i+1)*mBytes]
		er.col1[i].read(ui)
		subtle.XORBytes(ui, ui, er.r)
	}
	subtle.XORBytes(u, u, er.t)

	// The row pads H(j, t_j) need nothing from the sender, so they are
	// hashed while it hashes its own.
	p := Pending[M]{choices: choices, pads: make([]M, m)}
	var rows [8]Message
	for strip := 0; strip < mBytes; strip++ {
		transpose(er.t, mBytes, strip, &rows)
		first := 8 * strip
		for k := 0; k < min(8, m-first); k++ {
			p.pads[first+k] = M(rowHash(er.index+uint64(first+k), rows[k]))
		}
	}
	er.index += uint64(m)
	return dst, p
}

// finish is the receiver's second half of the batch p: it reads the
// ciphertext frame, unmasks the chosen messages in p's pads, which it
// returns, and recycles the frame. Of er it touches only the
// connection's receive side.
func finish[M ~[16]byte](er *ExtensionReceiver, p Pending[M]) ([]M, error) {
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
		p.pads[j] = M(xorMsg(Message(p.pads[j]), Message(cts[off:off+16])))
	}
	return p.pads, nil
}
