package gc

import (
	"encoding/binary"
	"fmt"

	"maxelerator/internal/label"
)

// Wire codec for Material: a versioned, explicit binary layout, so that
// an evaluator in any language can speak the protocol. Layout, all
// integers little-endian:
//
//	byte    version (1)
//	uint64  tweak base
//	uint32  table count        then per table: uint8 rows, rows×16 B
//	uint32  garbler labels     then 16 B each
//	2×16 B  constant labels
//	uint32  output perm bits   then packed bits (LSB first)
//	uint32  state-in labels    then 16 B each (0 when absent)
//
// The table region is also the tables' in-memory layout
// (Material.TableBlock): encoding copies it with one append, decoding
// checks its structure and aliases it.
//
// The format is self-delimiting and rejects truncated or oversized
// input.

// codecVersion is the current material wire-format version.
const codecVersion = 1

// MaterialSize reports the exact encoded length of m. Callers sizing
// reusable buffers (the wire arena) use it to append without
// reallocation. The error is always nil — the table block is already in
// wire layout, so nothing is left that could be unrepresentable — and
// stays in the signature for the callers that check it.
func MaterialSize(m *Material) (int, error) {
	size := 1 + 8 + 4 + len(m.TableBlock)
	size += 4 + len(m.GarblerActive)*label.Size
	size += 2 * label.Size
	size += 4 + (len(m.OutputPerm)+7)/8
	size += 4 + len(m.StateInActive)*label.Size
	return size, nil
}

// MarshalMaterial serialises m in the versioned binary layout.
func MarshalMaterial(m *Material) ([]byte, error) {
	size, err := MaterialSize(m)
	if err != nil {
		return nil, err
	}
	return AppendMaterial(make([]byte, 0, size), m)
}

// AppendMaterial appends m's versioned binary encoding to dst and
// returns the extended slice. The bytes produced are identical to
// MarshalMaterial's; the split lets the serve path assemble a frame in
// a pooled wire buffer, the table block going in as one bulk copy.
func AppendMaterial(dst []byte, m *Material) ([]byte, error) {
	out := dst
	out = append(out, codecVersion)
	out = binary.LittleEndian.AppendUint64(out, m.TweakBase)

	out = binary.LittleEndian.AppendUint32(out, uint32(m.NumTables))
	out = append(out, m.TableBlock...)

	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.GarblerActive)))
	for _, l := range m.GarblerActive {
		out = append(out, l[:]...)
	}
	out = append(out, m.ConstActive[0][:]...)
	out = append(out, m.ConstActive[1][:]...)

	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.OutputPerm)))
	var packed byte
	for i, v := range m.OutputPerm {
		if v {
			packed |= 1 << (uint(i) % 8)
		}
		if i%8 == 7 {
			out = append(out, packed)
			packed = 0
		}
	}
	if len(m.OutputPerm)%8 != 0 {
		out = append(out, packed)
	}

	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.StateInActive)))
	for _, l := range m.StateInActive {
		out = append(out, l[:]...)
	}
	return out, nil
}

// decoder is a bounds-checked cursor over the encoded bytes.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || n > len(d.buf)-d.off {
		return nil, fmt.Errorf("gc: truncated material (need %d bytes at offset %d of %d)", n, d.off, len(d.buf))
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

// count reads a uint32 item count and rejects it unless that many items
// of at least minBits bits each fit in the bytes that remain — so a
// hostile header is refused before anything is sized by it.
func (d *decoder) count(minBits uint64) (int, error) {
	b, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	n := uint64(binary.LittleEndian.Uint32(b))
	if remaining := uint64(len(d.buf) - d.off); n*minBits > remaining*8 {
		return 0, fmt.Errorf("gc: material count %d at offset %d exceeds what the remaining %d bytes can hold", n, d.off-4, remaining)
	}
	return int(n), nil
}

// labels reads a counted run of labels; nil when the count is zero.
func (d *decoder) labels() ([]label.Label, error) {
	n, err := d.count(label.Bits)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]label.Label, n)
	for i := range out {
		out[i] = label.Label(d.buf[d.off : d.off+label.Size])
		d.off += label.Size
	}
	return out, nil
}

// UnmarshalMaterial parses the versioned binary layout. The returned
// Material aliases data: its TableBlock is the table region of data
// itself, checked (every row count, the table count, no overrun) but not
// copied. The caller must own data and leave it untouched for as long as
// the Material is in use. Every wire.Conn hands each received frame to
// the receiver as its own buffer, a body drawn from wire's recycled
// size classes (wire.Pipe copies into one), so the protocol's evaluator
// parses and evaluates a round in place and hands the frame back with
// wire.Recycle once Eval has returned — Eval copies everything its
// result holds.
func UnmarshalMaterial(data []byte) (*Material, error) {
	d := &decoder{buf: data}
	ver, err := d.bytes(1)
	if err != nil {
		return nil, err
	}
	if ver[0] != codecVersion {
		return nil, fmt.Errorf("gc: unsupported material version %d", ver[0])
	}
	tw, err := d.bytes(8)
	if err != nil {
		return nil, err
	}
	m := &Material{TweakBase: binary.LittleEndian.Uint64(tw)}

	// A table is at least its row-count byte. The table region is
	// walked, not copied: 16 B per row after each count byte.
	if m.NumTables, err = d.count(8); err != nil {
		return nil, err
	}
	start := d.off
	for i := 0; i < m.NumTables; i++ {
		if d.off >= len(data) {
			return nil, fmt.Errorf("gc: truncated material (table %d of %d starts at offset %d of %d)", i, m.NumTables, d.off, len(data))
		}
		d.off += 1 + int(data[d.off])*label.Size
	}
	if d.off > len(data) {
		return nil, fmt.Errorf("gc: truncated material (%d tables end at offset %d of %d)", m.NumTables, d.off, len(data))
	}
	m.TableBlock = data[start:d.off:d.off]

	if m.GarblerActive, err = d.labels(); err != nil {
		return nil, err
	}
	consts, err := d.bytes(2 * label.Size)
	if err != nil {
		return nil, err
	}
	m.ConstActive[0] = label.Label(consts[:label.Size])
	m.ConstActive[1] = label.Label(consts[label.Size:])

	nPerm, err := d.count(1)
	if err != nil {
		return nil, err
	}
	permBytes, err := d.bytes((nPerm + 7) / 8)
	if err != nil {
		return nil, err
	}
	m.OutputPerm = make([]bool, nPerm)
	for i := range m.OutputPerm {
		m.OutputPerm[i] = permBytes[i/8]>>(uint(i)%8)&1 == 1
	}

	if m.StateInActive, err = d.labels(); err != nil {
		return nil, err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("gc: %d trailing bytes after material", len(data)-d.off)
	}
	return m, nil
}
