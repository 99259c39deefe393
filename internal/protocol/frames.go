package protocol

// The frames of protocol v4, kept unchanged by v5. Outside the OT sub-protocol (raw
// fixed-size binary, see internal/ot) every frame starts with a one-byte
// tag from the one namespace below, and every control frame has one
// fixed little-endian layout after it, checked for exact length on
// receipt — the style of gc/codec.go. A receiver classifies a frame with
// one switch on its first byte; unknown tags, short frames and trailing
// bytes are errors. DESIGN.md §8 has the same table with senders, phases
// and receive caps.
//
// Control tags live in 0x80–0xF7 because no gob stream can start there
// (gob opens with a message length: a byte below 0x80, or a byte-count
// marker of 0xF8 and above). Protocol v3 and older spoke gob, so such a
// peer is recognised by its first byte and refused by name
// (ErrVersionMismatch) instead of being mis-parsed.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"maxelerator/internal/wire"
)

const (
	tagMaterial   byte = 0x00 // gc.AppendMaterial encoding
	tagError      byte = 0x01 // UTF-8 text: the garbler aborted the request
	tagHello      byte = 0x80 // u32 version, u16 width, u16 accumulator width, u8 signed
	tagHelloAck   byte = 0x81 // u32 version
	tagBusy       byte = 0x82 // u32 retry-after in ms
	tagShapeHint  byte = 0x83 // u32 rows, u32 cols, u16 width, u8 signed, u8 mode, u8 OT
	tagReqOpen    byte = 0x84 // nothing
	tagSessionEnd byte = 0x85 // nothing
	tagReqHeader  byte = 0x86 // u32 seq, u32 rows, u32 cols, u8 OT
	tagResult     byte = 0x87 // one i64 per matrix row

	// tagNone is what tagOf reports for an empty frame; no frame
	// carries it.
	tagNone byte = 0xFF
)

var le = binary.LittleEndian

// tagOf returns the tag a received frame opens with.
func tagOf(frame []byte) byte {
	if len(frame) == 0 {
		return tagNone
	}
	return frame[0]
}

// frameBody checks that frame is the named frame — its tag and its
// exact length, size bytes after the tag — and returns those bytes.
func frameBody(frame []byte, tag byte, name string, size int) ([]byte, error) {
	if tagOf(frame) != tag {
		return nil, fmt.Errorf("protocol: expected a %s frame (tag %#02x), got tag %#02x in a %d-byte frame", name, tag, tagOf(frame), len(frame))
	}
	if len(frame) != 1+size {
		return nil, fmt.Errorf("protocol: %s frame of %d bytes, want %d", name, len(frame), 1+size)
	}
	return frame[1:], nil
}

// recvFrame receives the next frame and parses it as the one due. The
// parsers copy what they return, so the frame is recycled.
func recvFrame[T any](conn wire.Conn, parse func([]byte) (T, error)) (T, error) {
	frame, err := conn.RecvMsg()
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := parse(frame)
	wire.Recycle(frame)
	return v, err
}

// errForeignFrame refuses a peer whose first frame did not parse as the
// v4 frame due at that point: the layouts are fixed per generation, so
// that is a version mismatch, not a corrupt stream.
func errForeignFrame(peer string, cause error) error {
	return fmt.Errorf("%w: the %s does not open with a v%d frame, so it speaks another generation (v3 and older framed with gob): %v",
		ErrVersionMismatch, peer, ProtoVersion, cause)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func parseBool(b byte, name string) (bool, error) {
	if b > 1 {
		return false, fmt.Errorf("protocol: %s byte %#02x is neither 0 nor 1", name, b)
	}
	return b == 1, nil
}

// hello is the server's opening frame. The version comes first, so it
// can be compared before anything else is believed; Width, AccWidth and
// Signed mirror the accelerator configuration. The garbling scheme and
// hash are not named: ProtoVersion fixes them (see NewServer).
type hello struct {
	ProtoVersion    int
	Width, AccWidth int
	Signed          bool
}

func appendHello(dst []byte, h hello) []byte {
	dst = append(dst, tagHello)
	dst = le.AppendUint32(dst, uint32(h.ProtoVersion))
	dst = le.AppendUint16(dst, uint16(h.Width))
	dst = le.AppendUint16(dst, uint16(h.AccWidth))
	return appendBool(dst, h.Signed)
}

func parseHello(frame []byte) (hello, error) {
	b, err := frameBody(frame, tagHello, "hello", 9)
	if err != nil {
		return hello{}, err
	}
	h := hello{
		ProtoVersion: int(le.Uint32(b)),
		Width:        int(le.Uint16(b[4:])),
		AccWidth:     int(le.Uint16(b[6:])),
	}
	h.Signed, err = parseBool(b[8], "hello signed")
	return h, err
}

// The hello ack is the client's half of the version negotiation.
func appendHelloAck(dst []byte, version int) []byte {
	return le.AppendUint32(append(dst, tagHelloAck), uint32(version))
}

func parseHelloAck(frame []byte) (version int, err error) {
	b, err := frameBody(frame, tagHelloAck, "hello ack", 4)
	if err != nil {
		return 0, err
	}
	return int(le.Uint32(b)), nil
}

// The busy frame is the load-shedding answer: an overloaded server (or
// gateway) sends it in place of the hello and closes the connection.
func appendBusy(dst []byte, retryAfter time.Duration) []byte {
	ms := min(max(retryAfter.Milliseconds(), 0), math.MaxUint32)
	return le.AppendUint32(append(dst, tagBusy), uint32(ms))
}

func parseBusy(frame []byte) (retryAfter time.Duration, err error) {
	b, err := frameBody(frame, tagBusy, "busy", 4)
	if err != nil {
		return 0, err
	}
	return time.Duration(le.Uint32(b)) * time.Millisecond, nil
}

// The shape hint's Mode and OT are names from closed vocabularies, so
// they travel as their index here, zero meaning "unknown" like every
// other zero field of a hint.
var (
	hintModes = []string{"", shapeModeMatVec}
	hintOTs   = []string{"", OTPerRound.String(), OTBatched.String()}
)

func appendShapeHint(dst []byte, h ShapeHint) ([]byte, error) {
	mode, ot := slices.Index(hintModes, h.Mode), slices.Index(hintOTs, h.OT)
	if h.Rows < 0 || uint64(h.Rows) > math.MaxUint32 || h.Cols < 0 || uint64(h.Cols) > math.MaxUint32 ||
		h.Width < 0 || h.Width > math.MaxUint16 || mode < 0 || ot < 0 {
		return nil, fmt.Errorf("protocol: shape hint %+v not representable (mode one of %q, OT one of %q)", h, hintModes, hintOTs)
	}
	dst = append(dst, tagShapeHint)
	dst = le.AppendUint32(dst, uint32(h.Rows))
	dst = le.AppendUint32(dst, uint32(h.Cols))
	dst = le.AppendUint16(dst, uint16(h.Width))
	dst = appendBool(dst, h.Signed)
	return append(dst, byte(mode), byte(ot)), nil
}

func parseShapeHint(frame []byte) (ShapeHint, error) {
	b, err := frameBody(frame, tagShapeHint, "shape hint", 13)
	if err != nil {
		return ShapeHint{}, err
	}
	if int(b[11]) >= len(hintModes) || int(b[12]) >= len(hintOTs) {
		return ShapeHint{}, fmt.Errorf("protocol: shape hint mode code %d or OT code %d unknown", b[11], b[12])
	}
	h := ShapeHint{
		Rows: int(le.Uint32(b)), Cols: int(le.Uint32(b[4:])), Width: int(le.Uint16(b[8:])),
		Mode: hintModes[b[11]], OT: hintOTs[b[12]],
	}
	h.Signed, err = parseBool(b[10], "shape hint signed")
	return h, err
}

// reqHeader is the server's per-request shape announcement: Seq numbers
// requests within the session from 0; Rows dot products of length Cols
// (a plain dot product has Rows == 1) under label-transfer mode OT.
type reqHeader struct {
	Seq        int
	Rows, Cols int
	OT         OTMode
}

func appendReqHeader(dst []byte, h reqHeader) []byte {
	dst = append(dst, tagReqHeader)
	dst = le.AppendUint32(dst, uint32(h.Seq))
	dst = le.AppendUint32(dst, uint32(h.Rows))
	dst = le.AppendUint32(dst, uint32(h.Cols))
	return append(dst, byte(h.OT))
}

func parseReqHeader(frame []byte) (reqHeader, error) {
	b, err := frameBody(frame, tagReqHeader, "request header", 13)
	if err != nil {
		return reqHeader{}, err
	}
	h := reqHeader{Seq: int(le.Uint32(b)), Rows: int(le.Uint32(b[4:])), Cols: int(le.Uint32(b[8:])), OT: OTMode(b[12])}
	return h, h.OT.validate()
}

// The result frame is the client's final report back to the server (the
// paper's output-sharing step: "Alice and Bob share their output maps
// to learn the output z"), one value per matrix row.
func appendResult(dst []byte, values []int64) []byte {
	dst = append(dst, tagResult)
	for _, v := range values {
		dst = le.AppendUint64(dst, uint64(v))
	}
	return dst
}

func parseResult(frame []byte) ([]int64, error) {
	if tagOf(frame) != tagResult || (len(frame)-1)%8 != 0 {
		return nil, fmt.Errorf("protocol: expected a result frame (tag %#02x and 8 bytes per value), got tag %#02x in a %d-byte frame", tagResult, tagOf(frame), len(frame))
	}
	values := make([]int64, (len(frame)-1)/8)
	for i := range values {
		values[i] = int64(le.Uint64(frame[1+8*i:]))
	}
	return values, nil
}
