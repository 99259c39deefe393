// Package recycle keeps released objects for reuse. A List is a free
// list that every goroutine shares and the garbage collector's clock
// trims: the received frame bodies of package wire and the garbled
// rounds of package gc live in Lists.
package recycle

import (
	"runtime"
	"sync"
	"weak"
)

// List is a LIFO of free items. One mutex guards it and no item is
// private to a core, so an item put on one core serves a Get on any
// other, and a workload whose peak the List has reached allocates
// nothing more. It lets go of what is not used, like a sync.Pool: after
// every garbage collection it drops the items, from the bottom of the
// stack, that nothing reached in either of the two collection periods
// before — those only an earlier, higher peak needed. Unlike a
// sync.Pool it keeps what the workload still reaches: two collections
// back to back, with nothing taken between them, drop only what the
// period before them did not reach either. An idle List is empty once
// two whole collection periods have passed without use, and a List
// nobody references any more is collected, items and all, like any
// other object. The zero List is ready to use; a List must not be
// copied after first use.
type List[T any] struct {
	mu    sync.Mutex
	items []T
	// low is the fewest items held since the last trim, so items[:low]
	// were not reached since; idle is how many of those, from the
	// bottom, were not reached in the period before it either.
	low, idle int
	listed    bool // on the trim registry
	// handle is how the registry reaches l, made when l is first
	// listed.
	handle *trimHandle
}

// Get takes the most recently put item; ok is false when the List is
// empty.
func (l *List[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		var zero T
		x, ok, l.items[n-1] = l.items[n-1], true, zero
		l.items = l.items[:n-1]
		l.low = min(l.low, n-1)
	}
	l.mu.Unlock()
	return x, ok
}

// Put releases x for a later Get.
func (l *List[T]) Put(x T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.unlockAndList()
}

// Reserve makes the List hold at least n items, making the shortfall
// with newItem, and counts the top n as reached: a workload that
// reserves its peak before each run keeps that peak through every
// trim, and never allocates during the run.
func (l *List[T]) Reserve(n int, newItem func() T) {
	l.mu.Lock()
	for len(l.items) < n {
		l.items = append(l.items, newItem())
	}
	l.low = min(l.low, len(l.items)-n)
	l.unlockAndList()
}

// unlockAndList unlocks l.mu, which the caller holds, and puts l on the
// trim registry unless it is there.
func (l *List[T]) unlockAndList() {
	list := !l.listed
	l.listed = true
	if l.handle == nil {
		l.handle = &trimHandle{trim: l.trim}
	}
	h := l.handle
	l.mu.Unlock()
	if list {
		registry.mu.Lock()
		registry.handles = append(registry.handles, weak.Make(h))
		registry.mu.Unlock()
	}
}

// trim drops the bottom items that neither this collection period nor
// the one before reached, and reports whether l is now empty, which
// takes it off the registry until the next Put.
func (l *List[T]) trim() (empty bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := min(l.low, l.idle)
	n := copy(l.items, l.items[d:])
	clear(l.items[n:])
	l.items = l.items[:n]
	l.idle, l.low = l.low-d, n
	if n == 0 {
		l.items, l.idle, l.listed = nil, 0, false
	}
	return n == 0
}

// Scribble fills b with 0xA5, the bytes a Poison build writes over
// whatever it releases.
func Scribble(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}

// trimHandle is a List's trim, on the heap: the List holds its handle
// and the handle its List, and the registry holds the handle weakly, so
// a List its owner drops — a server's round pool, say — is collected
// with the items it holds at the next collection instead of waiting out
// its trims.
type trimHandle struct{ trim func() (empty bool) }

// registry holds the handle of every non-empty List, for trimAll.
var registry struct {
	mu      sync.Mutex
	handles []weak.Pointer[trimHandle]
}

// trimAll trims every List on the registry and takes the empty and the
// collected ones off.
func trimAll() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	kept := registry.handles[:0]
	for _, wh := range registry.handles {
		if h := wh.Value(); h != nil && !h.trim() {
			kept = append(kept, wh)
		}
	}
	clear(registry.handles[len(kept):])
	registry.handles = kept
}

// sentinel is the collection clock: each garbage collection finds the
// current one unreachable, and its finalizer trims every List and arms
// the next. The pointer field keeps it off the tiny allocator, whose
// objects need not be finalized.
type sentinel struct{ _ *byte }

func init() { arm() }

func arm() {
	runtime.SetFinalizer(&sentinel{}, func(*sentinel) {
		trimAll()
		arm()
	})
}
