//go:build poison

package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestPoisonFillsRecycledBodies: in a poison build a recycled body is
// 0xA5 to its capacity, so a frame read after its release is garbage.
func TestPoisonFillsRecycledBodies(t *testing.T) {
	b := body(100)
	for i := range b {
		b[i] = 1
	}
	Recycle(b)
	for i, v := range b[:cap(b)] {
		if v != 0xA5 {
			t.Fatalf("byte %d of a recycled body is %#x, want 0xa5", i, v)
		}
	}
}

// TestPoisonRecycledFrameAlone: frames read from one read-ahead
// buffer, and one read straight into its body, each own their buffer.
// In a poison build a recycled frame is 0xA5 at once, and the frames
// received with it stay intact until they are recycled in turn.
func TestPoisonRecycledFrameAlone(t *testing.T) {
	sizes := []int{8, 8, directRead, 8}
	var stream []byte
	for i, n := range sizes {
		stream = binary.BigEndian.AppendUint32(stream, uint32(n))
		stream = append(stream, bytes.Repeat([]byte{byte(i + 1)}, n)...)
	}
	c := NewStreamConn(bytes.NewBuffer(stream))
	var frames [][]byte
	for range sizes {
		f, err := c.RecvMsg()
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	for i := range frames {
		Recycle(frames[i])
		if !bytes.Equal(frames[i], bytes.Repeat([]byte{0xA5}, sizes[i])) {
			t.Fatalf("frame %d reads %x after its release, want a5s", i, frames[i][:8])
		}
		for j := i + 1; j < len(frames); j++ {
			if !bytes.Equal(frames[j], bytes.Repeat([]byte{byte(j + 1)}, sizes[j])) {
				t.Fatalf("releasing frame %d poisoned frame %d, still held", i, j)
			}
		}
	}
}
