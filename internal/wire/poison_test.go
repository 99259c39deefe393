//go:build poison

package wire

import "testing"

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
