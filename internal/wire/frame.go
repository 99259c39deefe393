package wire

import (
	"sync/atomic"

	"maxelerator/internal/recycle"
)

// Pooled frame assembly for the streaming serve path: a garbled
// round's material is appended into an arena buffer and handed to
// SendMsg as it is, so the hot path neither allocates a per-table
// []byte nor copies the payload to glue the length prefix on.

// Arena is a pool of frame-assembly buffers that counts its checkouts:
// Outstanding reports how many buffers are currently held. The serve
// pipeline checks one buffer out per frame it is assembling. Its free
// buffers are a recycle.List, like the received bodies (recycle.go).
type Arena struct {
	free        recycle.List[*Buf]
	outstanding atomic.Int64 // buffers currently checked out
}

// Buf is a pooled buffer checked out of an Arena. B starts empty;
// append into it, then Free it (directly or via FrameWriter) to return
// it to the pool.
type Buf struct {
	B []byte
	a *Arena
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get checks a buffer with at least sizeHint spare capacity out of the
// arena. The returned Buf.B has length zero.
func (a *Arena) Get(sizeHint int) *Buf {
	b, ok := a.free.Get()
	if !ok {
		b = &Buf{}
	}
	if cap(b.B) < sizeHint {
		b.B = make([]byte, 0, sizeHint)
	}
	b.B = b.B[:0]
	b.a = a
	a.outstanding.Add(1)
	return b
}

// Reserve makes the arena hold at least n free buffers, making the
// shortfall with size bytes of capacity, and keeps them through the
// collector's trims for as long as each run reserves them: a caller that
// checks out up to n buffers at a time, a varying number each run,
// allocates them all in its first run and then reuses them, rather than
// allocating anew each time a trim has dropped the ones only a deeper
// run reached.
func (a *Arena) Reserve(n, size int) {
	a.free.Reserve(n, func() *Buf { return &Buf{B: make([]byte, 0, size)} })
}

// Free returns b to its arena. A second Free of the same Buf is a
// no-op, so error paths can Free unconditionally.
func (b *Buf) Free() {
	if b == nil || b.a == nil {
		return
	}
	a := b.a
	b.a = nil
	a.outstanding.Add(-1)
	a.free.Put(b)
}

// Outstanding reports how many buffers are currently checked out; a
// quiesced pipeline must report zero.
func (a *Arena) Outstanding() int64 { return a.outstanding.Load() }

// FrameWriter assembles outgoing frames in arena buffers and transmits
// them with SendMsg. It is not safe for concurrent use; the serve
// pipeline owns one per session.
//
// Usage per frame:
//
//	buf := w.Begin(sizeHint)          // pooled, empty
//	buf.B = append(buf.B, ...)        // assemble the payload in place
//	err := w.Send(buf)                // one frame; buffer freed
//
// Send frees the buffer whether or not the write succeeds; abandoning
// a frame without sending requires only buf.Free().
type FrameWriter struct {
	conn  Conn
	arena *Arena
}

// NewFrameWriter returns a FrameWriter sending on conn with buffers
// from arena.
func NewFrameWriter(conn Conn, arena *Arena) *FrameWriter {
	return &FrameWriter{conn: conn, arena: arena}
}

// Begin checks an assembly buffer with at least sizeHint spare
// capacity out of the arena.
func (w *FrameWriter) Begin(sizeHint int) *Buf { return w.arena.Get(sizeHint) }

// Send transmits buf.B as one frame and returns the buffer to the arena
// in all cases.
func (w *FrameWriter) Send(buf *Buf) error {
	err := w.conn.SendMsg(buf.B)
	buf.Free()
	return err
}
