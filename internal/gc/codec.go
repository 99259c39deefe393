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
// The format is self-delimiting and rejects truncated or oversized
// input.

// codecVersion is the current material wire-format version.
const codecVersion = 1

// maxCodecItems bounds per-field counts against corrupt headers.
const maxCodecItems = 1 << 24

// MaterialSize reports the exact encoded length of m, or an error if a
// table is not representable. Callers sizing reusable buffers (the wire
// arena) use it to append without reallocation.
func MaterialSize(m *Material) (int, error) {
	size := 1 + 8 + 4
	for _, t := range m.Tables {
		if len(t) > 255 {
			return 0, fmt.Errorf("gc: table with %d rows not representable", len(t))
		}
		size += 1 + len(t)*label.Size
	}
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
// MarshalMaterial's; the split lets the serve path scatter-gather
// material into a pooled wire buffer without a per-table allocation.
func AppendMaterial(dst []byte, m *Material) ([]byte, error) {
	for _, t := range m.Tables {
		if len(t) > 255 {
			return nil, fmt.Errorf("gc: table with %d rows not representable", len(t))
		}
	}
	out := dst
	out = append(out, codecVersion)
	out = binary.LittleEndian.AppendUint64(out, m.TweakBase)

	out = binary.LittleEndian.AppendUint32(out, uint32(len(m.Tables)))
	for _, t := range m.Tables {
		out = append(out, byte(len(t)))
		for _, row := range t {
			out = append(out, row[:]...)
		}
	}
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
	if n < 0 || d.off+n > len(d.buf) {
		return nil, fmt.Errorf("gc: truncated material (need %d bytes at offset %d of %d)", n, d.off, len(d.buf))
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b, nil
}

func (d *decoder) u32() (int, error) {
	b, err := d.bytes(4)
	if err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(b)
	if v > maxCodecItems {
		return 0, fmt.Errorf("gc: implausible count %d in material", v)
	}
	return int(v), nil
}

func (d *decoder) label() (label.Label, error) {
	b, err := d.bytes(label.Size)
	if err != nil {
		return label.Zero, err
	}
	var l label.Label
	copy(l[:], b)
	return l, nil
}

// UnmarshalMaterial parses the versioned binary layout.
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

	nTables, err := d.u32()
	if err != nil {
		return nil, err
	}
	m.Tables = make([][]label.Label, nTables)
	for i := range m.Tables {
		rows, err := d.bytes(1)
		if err != nil {
			return nil, err
		}
		t := make([]label.Label, rows[0])
		for j := range t {
			if t[j], err = d.label(); err != nil {
				return nil, err
			}
		}
		m.Tables[i] = t
	}

	nGarbler, err := d.u32()
	if err != nil {
		return nil, err
	}
	m.GarblerActive = make([]label.Label, nGarbler)
	for i := range m.GarblerActive {
		if m.GarblerActive[i], err = d.label(); err != nil {
			return nil, err
		}
	}
	if m.ConstActive[0], err = d.label(); err != nil {
		return nil, err
	}
	if m.ConstActive[1], err = d.label(); err != nil {
		return nil, err
	}

	nPerm, err := d.u32()
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

	nState, err := d.u32()
	if err != nil {
		return nil, err
	}
	if nState > 0 {
		m.StateInActive = make([]label.Label, nState)
		for i := range m.StateInActive {
			if m.StateInActive[i], err = d.label(); err != nil {
				return nil, err
			}
		}
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("gc: %d trailing bytes after material", len(data)-d.off)
	}
	return m, nil
}
