package protocol

// Protocol v9 changed one thing on the wire: material frames carry
// codec version 2, whose tables have no row-count byte — the row count
// travels once, in the header, where v8's first table had its own. The
// hello and its ack name the version. These tests hold the pinned v9
// transcripts to the v8 ones they replaced: each v9 transcript, with
// the row-count bytes put back, is the v8 transcript its pin recorded,
// and stripping them from that v8 transcript gives the v9 one byte for
// byte.

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"maxelerator/internal/gc"
	"maxelerator/internal/label"
)

// v8Digests are the digests the pinned transcripts had under protocol
// v8, before v9 stripped the row-count bytes: the chain fixture's
// server frames inline and from a pool hit, the recycled-rounds
// session's, and the cork fixture's, as corkDigests keys them.
var v8Digests = map[string]string{
	"chain":                "638afa2d9067d2b1dd1e6164aa3d488144304421fff3c094252a2e6bcd91b22c",
	"chain/hit":            "f80479dd5ca5e9451f445690eccbd2fb55286199bb3e2416c30458eb1e94c2d9",
	"recycled":             "2c73f7f0d2743f981caa973629373ef00d5dc654fd6bbe0f9f9c573c771d716b",
	"per-round/server":     "96cbde6efba2b7cae81cc149d160981fbf31c9df568cc02623fa5f781bfc8653",
	"per-round/server/hit": "7cabfcbaa9731bbfae7ae96acb6c3f142b53da52f00e2a69e349386962d2b73a",
	"per-round/client":     "b54cda8278c100ac9328e6a7ea4cdaf0b3a4910b2a7bab894eb8a675b0ff175c",
	"batched/server":       "7ae7cbddc7e003e6a628032adf7fcbf192eca15a6a937b25544227ba1112c470",
	"batched/server/hit":   "abfc43b55f0153e2127805efcd17d87a30f957cfc971cf2633355fdb5f43d73e",
	"batched/client":       "ad9eb130310e6c24803010ce285c1c221428e60b4f2c1e4a5133d492df547d73",
}

// checkV8 fails t unless h, a digest of frames put through asV8, is
// v8Digests[key].
func checkV8(t *testing.T, key string, h hash.Hash) {
	t.Helper()
	if d := hex.EncodeToString(h.Sum(nil)); d != v8Digests[key] {
		t.Errorf("%s: the transcript with its row-count bytes put back has digest %s, the v8 pin %s", key, d, v8Digests[key])
	}
}

// asV8 is frame, a v9 frame, as v8 sent it: a hello or its ack naming
// version 8, a material frame with every table behind its own
// row-count byte, in codec version 1. Any other frame is unchanged; a
// raw OT frame is told from a material frame by failing to parse as one.
func asV8(frame []byte) []byte {
	out := append([]byte(nil), frame...)
	switch {
	case len(frame) == 10 && frame[0] == tagHello || len(frame) == 5 && frame[0] == tagHelloAck:
		binary.LittleEndian.PutUint32(out[1:], 8)
	case tagOf(frame) == tagMaterial:
		m, err := gc.UnmarshalMaterial(frame[1:])
		if err != nil {
			return out
		}
		stride := len(m.TableBlock) / max(m.NumTables, 1)
		out = append(out[:1], 1)
		out = append(out, frame[2:14]...) // tweak base, table count
		for k := range m.NumTables {
			out = append(out, byte(stride/label.Size))
			out = append(out, m.TableBlock[k*stride:(k+1)*stride]...)
		}
		out = append(out, frame[15+len(m.TableBlock):]...) // behind the tag, the header and the tables
	}
	return out
}

// stripV8 is frame, a v8 frame, as v9 sends it: every table's row-count
// byte stripped, the first becoming the header's, and the codec and
// protocol versions bumped. A material frame whose tables disagree on
// their row count is an error.
func stripV8(frame []byte) ([]byte, error) {
	out := append([]byte(nil), frame...)
	switch {
	case len(frame) == 10 && frame[0] == tagHello || len(frame) == 5 && frame[0] == tagHelloAck:
		binary.LittleEndian.PutUint32(out[1:], 9)
	case len(frame) > 14 && frame[0] == tagMaterial && frame[1] == 1:
		count, off := int(binary.LittleEndian.Uint32(frame[10:])), 14
		out = append(out[:1], 2)
		out = append(out, frame[2:14]...)
		out = append(out, frame[off])
		for k := range count {
			rows := int(frame[off])
			if rows != int(frame[14]) || off+1+rows*label.Size > len(frame) {
				return nil, fmt.Errorf("table %d of %d: %d rows at offset %d of %d", k, count, rows, off, len(frame))
			}
			out = append(out, frame[off+1:off+1+rows*label.Size]...)
			off += 1 + rows*label.Size
		}
		out = append(out, frame[off:]...)
	}
	return out, nil
}

// TestV9TranscriptIsV8Stripped: the chain fixture's and the
// recycled-rounds session's server frames, with the row-count bytes put
// back, are the transcripts the v8 pins recorded; stripping those bytes
// again gives the v9 frames byte for byte. The cork and pool-hit
// fixtures' writeCounters check the same v8 digests as they run.
func TestV9TranscriptIsV8Stripped(t *testing.T) {
	A, y := chainFixture()
	chain, _ := streamTranscriptOf(t, A, y, OTPerRound, 0, 2, poolNone)
	for _, tc := range []struct {
		key    string
		frames [][]byte
	}{{"chain", chain}, {"recycled", recycledRoundsFrames(t)}} {
		var v8 [][]byte
		materials := 0
		for _, f := range tc.frames {
			v8 = append(v8, asV8(f))
			if tagOf(f) == tagMaterial && len(v8[len(v8)-1]) > len(f) {
				materials++
			}
		}
		if d := framesDigest(v8); d != v8Digests[tc.key] {
			t.Fatalf("%s: the transcript with its row-count bytes put back has digest %s, the v8 pin %s", tc.key, d, v8Digests[tc.key])
		}
		if materials == 0 {
			t.Fatalf("%s: no material frame moved", tc.key)
		}
		for i, f := range v8 {
			got, err := stripV8(f)
			if err != nil {
				t.Fatalf("%s frame %d: %v", tc.key, i, err)
			}
			if !bytes.Equal(got, tc.frames[i]) {
				t.Fatalf("%s frame %d: stripping the v8 frame gives %d bytes, not the v9 frame's %d", tc.key, i, len(got), len(tc.frames[i]))
			}
		}
	}
}
