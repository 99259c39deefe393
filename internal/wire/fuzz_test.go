package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// chunkReader serves data in chunks of one of three shapes: one byte a
// Read (mode 0), seeded random lengths (1), or up to the next frame
// boundary of cuts (2). It records the largest Read it was asked for.
type chunkReader struct {
	data   []byte
	off    int
	mode   byte
	rng    *rand.Rand
	cuts   []int // ascending frame boundaries, for mode 2
	maxAsk int
}

func newChunkReader(data []byte, mode byte, seed int64, cuts []int) *chunkReader {
	return &chunkReader{data: data, mode: mode % 3, rng: rand.New(rand.NewSource(seed)), cuts: cuts}
}

func (r *chunkReader) Read(p []byte) (int, error) {
	r.maxAsk = max(r.maxAsk, len(p))
	if r.off == len(r.data) {
		return 0, io.EOF
	}
	n := len(r.data) - r.off
	switch r.mode {
	case 0:
		n = 1
	case 1:
		n = 1 + r.rng.Intn(n)
	case 2:
		for _, c := range r.cuts {
			if c > r.off {
				n = c - r.off
				break
			}
		}
	}
	n = copy(p, r.data[r.off:r.off+min(n, len(r.data)-r.off)])
	r.off += n
	return n, nil
}

func (r *chunkReader) Write(p []byte) (int, error) { return len(p), nil }

// errOverCap stands for the refusal of a length prefix over the cap.
var errOverCap = errors.New("over the cap")

// parseFrames is the reference reader: the frames of data in order,
// then why they stop — io.EOF on a frame boundary, io.ErrUnexpectedEOF
// inside a header or body, errOverCap at a prefix over limit — and the
// boundaries of the frames it returned.
func parseFrames(data []byte, limit int) (frames [][]byte, cuts []int, err error) {
	off := 0
	for {
		rest := data[off:]
		switch {
		case len(rest) == 0:
			return frames, cuts, io.EOF
		case len(rest) < frameHeaderSize:
			return frames, cuts, io.ErrUnexpectedEOF
		}
		n := int64(binary.BigEndian.Uint32(rest))
		switch {
		case n > int64(limit):
			return frames, cuts, errOverCap
		case int64(len(rest)-frameHeaderSize) < n:
			return frames, cuts, io.ErrUnexpectedEOF
		}
		frames = append(frames, rest[frameHeaderSize:frameHeaderSize+n])
		off += frameHeaderSize + int(n)
		cuts = append(cuts, off)
	}
}

// checkRecv reads data through one stream conn under limit, chunked by
// mode, and holds it to parseFrames: the same frames, then the same
// stop. Every other frame is recycled and the rest held, which must not
// change. Under the set-up cap no Read asks for more than the largest
// frame it admits, and a prefix over the cap is refused with nothing
// read past the window it arrived in.
func checkRecv(t *testing.T, data []byte, limit int, mode byte, seed int64) {
	t.Helper()
	want, cuts, wantErr := parseFrames(data, limit)
	r := newChunkReader(data, mode, seed, cuts)
	c := NewStreamConn(r)
	LimitRecv(c, limit)
	held := make([][]byte, len(want))
	for i, w := range want {
		got, err := c.RecvMsg()
		if err != nil {
			t.Fatalf("mode %d: frame %d of %d: %v", mode, i, len(want), err)
		}
		if !bytes.Equal(got, w) {
			t.Fatalf("mode %d: frame %d is %d bytes, want %d", mode, i, len(got), len(w))
		}
		if i%2 == 0 {
			Recycle(got)
		} else {
			held[i] = got
		}
	}
	for i := 1; i < len(want); i += 2 {
		if !bytes.Equal(held[i], want[i]) {
			t.Fatalf("mode %d: held frame %d changed", mode, i)
		}
	}
	_, err := c.RecvMsg()
	switch wantErr {
	case io.EOF:
		if !errors.Is(err, io.EOF) || !IsDisconnect(err) {
			t.Fatalf("mode %d: stream ending on a frame boundary gave %v, want io.EOF", mode, err)
		}
	case io.ErrUnexpectedEOF:
		if !errors.Is(err, io.ErrUnexpectedEOF) || !IsDisconnect(err) {
			t.Fatalf("mode %d: stream ending inside a frame gave %v, want io.ErrUnexpectedEOF", mode, err)
		}
	case errOverCap:
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("mode %d: a prefix over the %d-byte cap gave %v", mode, limit, err)
		}
		frameEnd := 0
		if len(cuts) > 0 {
			frameEnd = cuts[len(cuts)-1]
		}
		if window := min(readAhead, limit+frameHeaderSize); r.off > frameEnd+window {
			t.Fatalf("mode %d: refusing a prefix at byte %d read up to byte %d", mode, frameEnd, r.off)
		}
	}
	if limit == SetupFrameLimit && r.maxAsk > SetupFrameLimit+frameHeaderSize {
		t.Fatalf("mode %d: a Read under the set-up cap asked for %d bytes", mode, r.maxAsk)
	}
}

// FuzzStreamConnRecv feeds arbitrary bytes to the frame reader in every
// chunk shape, under the set-up cap or a cap past the read-ahead
// window: it must return exactly the frames and the stop the reference
// reader finds, never panic or over-allocate.
func FuzzStreamConnRecv(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 'h', 'i'}, false, int64(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, true, int64(2))
	f.Add([]byte{0, 0, 0, 0}, false, int64(3))
	f.Add([]byte{}, true, int64(4))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 'x', 0, 0}, false, int64(5))
	f.Add([]byte{0, 0, 0, 3, 'a', 'b'}, true, int64(6))
	f.Add(append([]byte{0, 0, 0x20, 1}, make([]byte, 8193)...), true, int64(7))
	f.Add(append([]byte{0, 1, 0, 1}, make([]byte, 70000)...), false, int64(8))
	f.Fuzz(func(t *testing.T, data []byte, setup bool, seed int64) {
		limit := 2 * readAhead
		if setup {
			limit = SetupFrameLimit
		}
		for mode := byte(0); mode < 3; mode++ {
			checkRecv(t, data, limit, mode, seed)
		}
	})
}

// FuzzStreamConnRoundTrip checks that any sequence of messages
// round-trips exactly through the framing, sent one SendMsg at a time
// or in one SendMsgs (the same bytes), and read back in every chunk
// shape while the receiver recycles every other message. The sequence
// carries an empty frame and one larger than the read-ahead window, and
// the stream then ends on a frame boundary, or cut inside a frame.
func FuzzStreamConnRoundTrip(f *testing.F) {
	f.Add([]byte("hello"), []byte{}, []byte{0, 1, 2}, uint16(0), uint32(0), int64(1))
	f.Add([]byte{}, []byte("x"), []byte{}, uint16(300), uint32(7), int64(2))
	f.Fuzz(func(t *testing.T, a, b, c []byte, extra uint16, cut uint32, seed int64) {
		large := bytes.Repeat([]byte{byte(seed), 0x5A}, (readAhead+int(extra))/2+1)
		sent := [][]byte{a, b, nil, c, large, c, a, b}
		var one, batch bytes.Buffer
		w := NewStreamConn(&one)
		for _, msg := range sent {
			if err := w.SendMsg(msg); err != nil {
				t.Fatal(err)
			}
		}
		if err := NewStreamConn(&batch).SendMsgs(sent); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bytes(), batch.Bytes()) {
			t.Fatal("SendMsgs wrote other bytes than SendMsg one frame at a time")
		}
		stream := one.Bytes()
		for mode := byte(0); mode < 3; mode++ {
			checkRecv(t, stream, MaxMessageSize, mode, seed)
		}
		if n := int(cut % uint32(len(stream))); n > 0 {
			checkRecv(t, stream[:n], MaxMessageSize, byte(cut), seed)
		}
	})
}
