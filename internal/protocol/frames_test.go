package protocol

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"
)

func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// First frames of the gob generations, captured from the PR 14 tree
// (each in a fresh process, as a peer's first encode would be): a v3
// hello{ProtoVersion: 3, Width: 8, AccWidth: 24, Signed: true, Scheme:
// "half-gates"}, helloAck{3}, busy frame (50 ms) and shape hint (2x5
// b=8 matvec per-round), and a v1 hello, which had no ProtoVersion.
var (
	v3GobHello = mustHex("507f0301010568656c6c6f01ff80000105010c50726f746f56657273696f6e010400010557696474680104000108416363576964746801040001065369676e65640102000106536368656d65010c00000017ff800106011001300101010a68616c662d676174657300")
	v3GobAck   = mustHex("267f0301010868656c6c6f41636b01ff80000101010c50726f746f56657273696f6e010400000005ff80010600")
	v3GobBusy  = mustHex("327f030101076d73674275737901ff800001020104427573790102000110526574727941667465724d696c6c6973010400000007ff800101016400")
	v3GobHint  = mustHex("597f0301010c6d7367536861706548696e7401ff80000107010448696e740102000104526f77730104000104436f6c730104000105576964746801040001065369676e656401020001044d6f6465010c0001024f54010c0000001eff8001010104010a011002066d617476656301097065722d726f756e6400")
	v1GobHello = mustHex("727f03010107763148656c6c6f01ff80000108010557696474680104000108416363576964746801040001065369676e65640102000106536368656d65010c000104526f77730104000104436f6c730104000109426174636865644f54010200010c436f7272656c617465644f54010200000017ff8001100130020a68616c662d67617465730102010400")
)

// openRequestByHand plays the client's half of a request opening —
// request open out, request header in — and stops there, leaving the
// server mid-rounds.
func openRequestByHand(t *testing.T, cs *ClientSession) reqHeader {
	t.Helper()
	if err := cs.tc.SendMsg([]byte{tagReqOpen}); err != nil {
		t.Fatal(err)
	}
	hdr, err := recvFrame(cs.tc, parseReqHeader)
	if err != nil {
		t.Fatal(err)
	}
	return hdr
}

// oneOfEach is one well-formed frame per control tag (and the error
// frame), keyed by name.
func oneOfEach(t testing.TB) map[string][]byte {
	hint, err := appendShapeHint(nil, ShapeHint{Rows: 2, Cols: 5, Width: 8, Signed: true, Mode: "matvec", OT: "batched"})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"hello":          appendHello(nil, hello{ProtoVersion: ProtoVersion, Width: 8, AccWidth: 24, Signed: true}),
		"hello ack":      appendHelloAck(nil, ProtoVersion),
		"busy":           appendBusy(nil, 50*time.Millisecond),
		"shape hint":     hint,
		"request open":   {tagReqOpen},
		"session end":    {tagSessionEnd},
		"request header": appendReqHeader(nil, reqHeader{Seq: 3, Rows: 4, Cols: 16, OT: OTBatched}),
		"result":         appendResult(nil, []int64{18, -7, 0}),
		"error":          append([]byte{tagError}, "request aborted"...),
	}
}

// reencode parses frame as the control frame its tag names and encodes
// the parsed value again.
func reencode(frame []byte) ([]byte, error) {
	switch tagOf(frame) {
	case tagHello:
		h, err := parseHello(frame)
		return appendHello(nil, h), err
	case tagHelloAck:
		v, err := parseHelloAck(frame)
		return appendHelloAck(nil, v), err
	case tagBusy:
		d, err := parseBusy(frame)
		return appendBusy(nil, d), err
	case tagShapeHint:
		h, err := parseShapeHint(frame)
		if err != nil {
			return nil, err
		}
		return appendShapeHint(nil, h)
	case tagReqOpen, tagSessionEnd:
		_, err := frameBody(frame, frame[0], "tag-only", 0)
		return []byte{frame[0]}, err
	case tagReqHeader:
		h, err := parseReqHeader(frame)
		return appendReqHeader(nil, h), err
	case tagResult:
		vs, err := parseResult(frame)
		return appendResult(nil, vs), err
	case tagError:
		return append([]byte{tagError}, frame[1:]...), nil
	default:
		return nil, fmt.Errorf("no control frame has tag %#02x", tagOf(frame))
	}
}

// FuzzControlFrame: the control-frame parsers never panic, and accept
// only canonical encodings — whatever parses encodes back to the same
// bytes, so no two frames mean the same thing and nothing is silently
// ignored. The gob generations' first frames never parse.
func FuzzControlFrame(f *testing.F) {
	for _, frame := range oneOfEach(f) {
		f.Add(frame)
	}
	for _, frame := range [][]byte{v3GobHello, v3GobAck, v3GobBusy, v3GobHint, v1GobHello, {}} {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		again, err := reencode(frame)
		if err == nil && !bytes.Equal(again, frame) {
			t.Fatalf("frame %x parsed, but encodes back as %x", frame, again)
		}
		if err == nil && len(frame) > 0 && (frame[0] < 0x80 || frame[0] > 0xF7) && frame[0] != tagError {
			t.Fatalf("frame %x parsed as a control frame with a tag a gob stream could open with", frame)
		}
	})
}

// TestControlFramesExactLength: every fixed-layout frame is refused one
// byte short and one byte long, under another frame's tag, and with a
// flag byte that is neither 0 nor 1.
func TestControlFramesExactLength(t *testing.T) {
	for name, frame := range oneOfEach(t) {
		if _, err := reencode(frame); err != nil {
			t.Errorf("%s: well-formed frame refused: %v", name, err)
		}
		if name == "error" {
			continue // free text: every length is a frame
		}
		if _, err := reencode(frame[:len(frame)-1]); err == nil && len(frame) > 1 {
			t.Errorf("%s: accepted one byte short", name)
		}
		if _, err := reencode(append(frame[:len(frame):len(frame)], 0)); err == nil {
			t.Errorf("%s: accepted a trailing byte", name)
		}
	}
	frames := oneOfEach(t)
	if _, err := parseHello(frames["hello ack"]); err == nil {
		t.Error("parseHello accepted a hello ack")
	}
	for _, name := range []string{"hello", "shape hint"} {
		bad := append([]byte(nil), frames[name]...)
		bad[map[string]int{"hello": 9, "shape hint": 11}[name]] = 2
		if _, err := reencode(bad); err == nil || !strings.Contains(err.Error(), "neither 0 nor 1") {
			t.Errorf("%s with signed byte 2: error = %v", name, err)
		}
	}
	if _, err := appendShapeHint(nil, ShapeHint{Mode: "serial"}); err == nil {
		t.Error("a hint naming an unknown mode was encoded")
	}
	if _, err := appendShapeHint(nil, ShapeHint{Rows: -1}); err == nil {
		t.Error("a hint with negative rows was encoded")
	}
	if d, err := parseBusy(appendBusy(nil, -time.Second)); err != nil || d != 0 {
		t.Errorf("negative retry hint: got %v, %v; want it sent as zero", d, err)
	}
}
