package wire

import (
	"bytes"
	"testing"
)

// TestRecycledBodiesAreReused: a recycled body comes back to the next
// RecvMsg of its size class, on the stream conn and through the pipe's
// copy, and never to a frame of another class.
func TestRecycledBodiesAreReused(t *testing.T) {
	var stream bytes.Buffer
	c := NewStreamConn(&stream)
	small, large := bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 20000)
	recv := func(want []byte) []byte {
		t.Helper()
		if err := c.SendMsg(want); err != nil {
			t.Fatal(err)
		}
		got, err := c.RecvMsg()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("received %d bytes (%v), want the %d sent", len(got), err, len(want))
		}
		return got
	}
	l := recv(large)
	if cap(l) != 32<<10 {
		t.Fatalf("a 20 000-byte body has capacity %d, want its class's 32 KiB", cap(l))
	}
	Recycle(l)
	if s := recv(small); cap(s) != 128 {
		t.Fatalf("a 100-byte frame took a %d-byte buffer, want its own 128-byte class", cap(s))
	}
	if again := recv(large); &again[0] != &l[0] {
		t.Fatal("the next large frame did not reuse the recycled body")
	}

	a, b := Pipe()
	defer a.Close()
	if err := a.SendMsg(small); err != nil {
		t.Fatal(err)
	}
	first, err := b.RecvMsg()
	if err != nil {
		t.Fatal(err)
	}
	Recycle(first)
	if err := a.SendMsg(large[:100]); err != nil {
		t.Fatal(err)
	}
	second, err := b.RecvMsg()
	if err != nil || !bytes.Equal(second, large[:100]) || &second[0] != &first[0] {
		t.Fatalf("the pipe's second copy (%v) did not land in the recycled body", err)
	}
}

// TestRecycleAllocatesNothing: drawing a body and handing it back costs
// no heap object once the class holds one.
func TestRecycleAllocatesNothing(t *testing.T) {
	Recycle(body(5000))
	if allocs := testing.AllocsPerRun(100, func() { Recycle(body(5000)) }); allocs != 0 {
		t.Fatalf("a body draw and recycle allocate %.0f objects, want 0", allocs)
	}
}
