package recycle

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"
	"weak"
)

func (l *List[T]) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

func TestListIsLIFO(t *testing.T) {
	var l List[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty List reported an item")
	}
	for i := range 3 {
		l.Put(i)
	}
	for want := 2; want >= 0; want-- {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = %d, %v; want %d, true", got, ok, want)
		}
	}
}

// TestTrimDropsWhatTwoPeriodsLeftUntaken walks the trim rule one
// collection at a time: a List keeps what the last two periods reached,
// so a busy period protects its items through a collection right behind
// the next one, and an idle List empties at the second trim.
func TestTrimDropsWhatTwoPeriodsLeftUntaken(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no collection trims behind the test's back
	var l List[int]
	for i := range 4 {
		l.Put(i)
	}
	steps := []struct {
		busy  int // items taken and put back before the trim
		after int // items held after it
	}{
		{0, 4}, // nothing was held before the period: nothing was idle twice
		{2, 4}, // the top two were reached
		{0, 2}, // back to back: only the bottom two were idle twice
		{0, 0}, // idle since: empty, and off the registry
	}
	for i, s := range steps {
		for range s.busy {
			l.Get()
		}
		for range s.busy {
			l.Put(0)
		}
		empty := l.trim()
		if n := l.len(); n != s.after || empty != (n == 0) {
			t.Fatalf("trim %d: %d items held (empty=%v), want %d", i, n, empty, s.after)
		}
	}
}

// TestReserveCountsAsReached: what a run reserves survives collections
// however little of it the run takes.
func TestReserveCountsAsReached(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var l List[*int]
	made := 0
	newItem := func() *int { made++; return new(int) }
	for range 5 {
		l.Reserve(3, newItem)
		l.trim()
	}
	if n := l.len(); n != 3 || made != 3 {
		t.Fatalf("%d items held, %d made; want 3 and 3", n, made)
	}
}

// TestDroppedListIsCollected: the trim registry holds a List weakly, so
// a List its owner drops, items and all, is collected at the next
// collection rather than kept until its trims have emptied it.
func TestDroppedListIsCollected(t *testing.T) {
	l := new(List[*[1 << 10]byte])
	l.Reserve(4, func() *[1 << 10]byte { return new([1 << 10]byte) })
	wl := weak.Make(l)
	l = nil
	runtime.GC()
	if wl.Value() != nil {
		t.Fatal("a dropped List outlived a collection")
	}
}

// TestCollectionsTrimIdleLists: the collector's clock drives the trims,
// so a List nobody touches lets go of everything.
func TestCollectionsTrimIdleLists(t *testing.T) {
	var l List[[]byte]
	for range 4 {
		l.Put(make([]byte, 1<<10))
	}
	deadline := time.Now().Add(10 * time.Second)
	for l.len() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d items still held after collections for 10 s", l.len())
		}
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer goroutine trims
	}
}
