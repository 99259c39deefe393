package wire

import (
	"bytes"
	"testing"
)

// FuzzStreamConnRecv feeds arbitrary bytes to the frame reader: it
// must never panic or over-allocate, only return messages or errors.
func FuzzStreamConnRecv(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 'h', 'i'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewStreamConn(bytes.NewBuffer(data))
		for i := 0; i < 4; i++ {
			msg, err := c.RecvMsg()
			if err != nil {
				return
			}
			if len(msg) > MaxMessageSize {
				t.Fatalf("oversized message of %d bytes accepted", len(msg))
			}
		}
	})
}

// FuzzStreamConnRoundTrip checks that any sequence of messages
// round-trips exactly through the framing while the receiver recycles
// every other message it reads: a later message read into a recycled
// body arrives intact, and so does every message still held.
func FuzzStreamConnRoundTrip(f *testing.F) {
	f.Add([]byte("hello"), []byte{}, []byte{0, 1, 2})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		var buf bytes.Buffer
		w := NewStreamConn(&buf)
		sent := [][]byte{a, b, c, c, a, b}
		for _, msg := range sent {
			if err := w.SendMsg(msg); err != nil {
				t.Fatal(err)
			}
		}
		r := NewStreamConn(&buf)
		held := make([][]byte, len(sent))
		for i, want := range sent {
			got, err := r.RecvMsg()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: %q != %q", i, got, want)
			}
			if i%2 == 0 {
				Recycle(got)
			} else {
				held[i] = got
			}
		}
		for i := 1; i < len(sent); i += 2 {
			if !bytes.Equal(held[i], sent[i]) {
				t.Fatalf("held frame %d changed to %q, want %q", i, held[i], sent[i])
			}
		}
	})
}
