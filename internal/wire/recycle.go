package wire

import (
	"math/bits"

	"maxelerator/internal/recycle"
)

// Received bodies are recycled, not reallocated. A body of n bytes is
// drawn from size class k = ⌈log₂ n⌉, whose buffers all hold at least
// 2^k bytes, and a recycled one goes back to class ⌊log₂ cap⌋, so a draw
// never grows what it takes and a small frame never takes a buffer from
// a larger frame's class. Each class is a recycle.List: shared by every
// goroutine, so the reader that recycles a frame feeds the next RecvMsg
// on any core, and trimmed by the collector, so an idle process pins
// nothing.

// maxClass is the class of MaxMessageSize (2^26), the largest body a
// RecvMsg draws.
const maxClass = 26

// bodies[k] holds free buffers of capacity at least 2^k, empty.
var bodies [maxClass + 1]recycle.List[[]byte]

// body returns an n-byte buffer from class k = ⌈log₂ n⌉, allocating
// one of exactly 2^k bytes when the class has none free. Its contents
// are unspecified. An empty body, or one past MaxMessageSize (only a
// pipe carries those), is a plain make: n = 0 makes k = 64.
func body(n int) []byte {
	k := bits.Len(uint(n - 1))
	if k > maxClass {
		return make([]byte, n)
	}
	if b, ok := bodies[k].Get(); ok {
		return b[:n]
	}
	return make([]byte, n, 1<<k)
}

// Recycle hands back msg, a message a RecvMsg returned that the caller
// owns and no longer reads, so that a later RecvMsg reuses its buffer.
// Nothing may touch msg, or anything aliasing it, afterwards. A
// zero-capacity msg is ignored.
func Recycle(msg []byte) {
	if cap(msg) == 0 {
		return
	}
	if recycle.Poison {
		recycle.Scribble(msg[:cap(msg)])
	}
	bodies[min(bits.Len(uint(cap(msg)))-1, maxClass)].Put(msg[:0])
}
