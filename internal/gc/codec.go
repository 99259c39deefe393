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
//	byte    version (2)
//	uint64  tweak base
//	uint32  table count
//	uint8   rows per table     then count × rows × 16 B
//	uint32  garbler labels     then 16 B each
//	2×16 B  constant labels
//	uint32  output perm bits   then packed bits (LSB first)
//	uint32  state-in labels    then 16 B each (0 when absent)
//
// A frame's tables all have one row count, which travels once, in the
// fixed-size header (version 1 put it before every table). The table
// region is also the tables' in-memory layout (Material.TableBlock): a
// round is garbled into its frame in place (Garbled.Frame), elsewhere
// encoding copies it with one append, and decoding aliases it.
//
// The format is self-delimiting and rejects truncated or oversized
// input.

// codecVersion is the current material wire-format version.
const codecVersion = 2

// headerSize is the material header's length: version to rows.
const headerSize = 1 + 8 + 4 + 1

// MaterialSize reports the exact encoded length of m. Callers sizing
// reusable buffers use it to append without reallocation. The error is
// always nil — the table block is already in wire layout, so nothing is
// left that could be unrepresentable — and stays in the signature for
// the callers that check it.
func MaterialSize(m *Material) (int, error) {
	return headerSize + len(m.TableBlock) + trailerSize(len(m.GarblerActive), len(m.OutputPerm), len(m.StateInActive)), nil
}

// trailerSize is the encoded length of what follows the tables.
func trailerSize(garbler, perm, state int) int {
	return 4 + garbler*label.Size + 2*label.Size + 4 + (perm+7)/8 + 4 + state*label.Size
}

// MarshalMaterial serialises m in the versioned binary layout.
func MarshalMaterial(m *Material) ([]byte, error) {
	size, _ := MaterialSize(m)
	return AppendMaterial(make([]byte, 0, size), m)
}

// AppendMaterial appends m's versioned binary encoding to dst and
// returns the extended slice. The bytes produced are identical to
// MarshalMaterial's and to Garbled.Frame's behind its headroom; the
// serve path uses the latter, which copies no table.
func AppendMaterial(dst []byte, m *Material) ([]byte, error) {
	return appendTrailer(append(appendHeader(dst, m), m.TableBlock...), m), nil
}

// appendHeader appends m's header, the row count read off its block.
func appendHeader(dst []byte, m *Material) []byte {
	rows := len(m.TableBlock) / max(m.NumTables*label.Size, 1)
	dst = append(dst, codecVersion)
	dst = binary.LittleEndian.AppendUint64(dst, m.TweakBase)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(m.NumTables))
	return append(dst, byte(rows))
}

// appendTrailer appends everything of m's encoding after the tables.
func appendTrailer(out []byte, m *Material) []byte {
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
	return out
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
	b := d.buf[d.off : d.off+n : d.off+n]
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

// labels reads a counted run of labels into dst's backing array;
// a nil dst stays nil when the count is zero.
func (d *decoder) labels(dst []label.Label) ([]label.Label, error) {
	n, err := d.count(label.Bits)
	dst = dst[:0]
	for range n {
		dst = append(dst, label.Label(d.buf[d.off:d.off+label.Size]))
		d.off += label.Size
	}
	return dst, err
}

// UnmarshalMaterial parses the versioned binary layout into a new
// Material; see Parse.
func UnmarshalMaterial(data []byte) (*Material, error) {
	m := new(Material)
	if err := m.Parse(data); err != nil {
		return nil, err
	}
	return m, nil
}

// Parse parses the versioned binary layout into m, reusing the capacity
// of m's slices, so a reader that parses frame after frame into one
// Material allocates nothing once they have grown. m's TableBlock is
// the table region of data itself, checked by its length and not
// copied: the caller must own data and leave it untouched for as long
// as m is in use. Every wire.Conn hands each received frame to the
// receiver as its own, so the protocol's evaluator parses and evaluates
// a round in place and hands the frame back with wire.Recycle once
// Eval has returned — Eval copies everything its result holds. On an
// error m holds part of the frame.
func (m *Material) Parse(data []byte) error {
	d := &decoder{buf: data}
	hdr, err := d.bytes(headerSize)
	if err != nil {
		return err
	}
	if hdr[0] != codecVersion {
		return fmt.Errorf("gc: unsupported material version %d", hdr[0])
	}
	m.TweakBase = binary.LittleEndian.Uint64(hdr[1:])
	// One multiply sizes the table region, checked (0 rows exactly when
	// 0 tables) against what remains before it sizes anything; aliased.
	count, rows := binary.LittleEndian.Uint32(hdr[9:]), hdr[13]
	size := uint64(count) * uint64(rows) * label.Size
	if (count == 0) != (rows == 0) || size > uint64(len(data)-d.off) {
		return fmt.Errorf("gc: %d tables of %d rows (%d bytes) in %d remaining", count, rows, size, len(data)-d.off)
	}
	m.NumTables = int(count)
	m.TableBlock, _ = d.bytes(int(size))

	if m.GarblerActive, err = d.labels(m.GarblerActive); err != nil {
		return err
	}
	consts, err := d.bytes(2 * label.Size)
	if err != nil {
		return err
	}
	m.ConstActive[0] = label.Label(consts[:label.Size])
	m.ConstActive[1] = label.Label(consts[label.Size:])

	nPerm, err := d.count(1)
	if err != nil {
		return err
	}
	permBytes, _ := d.bytes((nPerm + 7) / 8) // count checked it fits
	m.OutputPerm = m.OutputPerm[:0]
	for i := range nPerm {
		m.OutputPerm = append(m.OutputPerm, permBytes[i/8]>>(uint(i)%8)&1 == 1)
	}

	if m.StateInActive, err = d.labels(m.StateInActive); err != nil {
		return err
	}
	if d.off != len(data) {
		return fmt.Errorf("gc: %d trailing bytes after material", len(data)-d.off)
	}
	return nil
}
