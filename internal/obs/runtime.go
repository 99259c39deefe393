package obs

import (
	"runtime"
	"sync"
	"time"
)

// GCPauseBuckets bound the runtime_gc_pause_seconds histogram: GC
// stop-the-world pauses sit in the microsecond-to-millisecond range,
// well below DurationBuckets' protocol-latency territory.
var GCPauseBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
	1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.1,
}

// SchedLatencyBuckets bound the goroutine wake-up latency proxy, which
// on a healthy host sits at a few microseconds and climbs when the
// scheduler's run queues back up.
var SchedLatencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 0.1,
}

// RuntimeCollector samples the Go runtime into a Registry: goroutine
// count, heap occupancy, GC cycle and pause accounting, and a
// scheduler-latency proxy. It exists so a perf regression maxperf or a
// load run shows is explainable from the daemon's own /metrics —
// "p99 moved because GC pauses doubled" is a diff, not a guess.
//
// Collect is cheap (one runtime.ReadMemStats plus one goroutine
// wake-up) and is normally driven per-scrape via Obs.OnScrape, so the
// exposition is exactly as fresh as the scrape that reads it. A nil
// *RuntimeCollector is a no-op.
type RuntimeCollector struct {
	goroutines *Gauge
	heapInuse  *Gauge
	heapIdle   *Gauge
	heapSys    *Gauge
	nextGC     *Gauge
	gcCycles   *Counter
	gcPause    *Histogram
	sched      *Histogram

	mu        sync.Mutex
	lastNumGC uint32
}

// NewRuntimeCollector registers the runtime metric families in reg
// (nil reg yields a functional no-op collector) and primes the GC
// cursor so only pauses after construction are observed.
func NewRuntimeCollector(reg *Registry) *RuntimeCollector {
	rc := &RuntimeCollector{
		goroutines: reg.Gauge("runtime_goroutines", "live goroutines"),
		heapInuse:  reg.Gauge("runtime_heap_inuse_bytes", "heap bytes in spans currently in use"),
		heapIdle:   reg.Gauge("runtime_heap_idle_bytes", "heap bytes in idle (unused) spans"),
		heapSys:    reg.Gauge("runtime_heap_sys_bytes", "heap bytes obtained from the OS"),
		nextGC:     reg.Gauge("runtime_next_gc_bytes", "heap size target of the next GC cycle"),
		gcCycles:   reg.Counter("runtime_gc_cycles_total", "completed GC cycles"),
		gcPause:    reg.Histogram("runtime_gc_pause_seconds", "GC stop-the-world pause durations", GCPauseBuckets),
		sched:      reg.Histogram("runtime_sched_latency_seconds", "goroutine wake-up latency proxy (spawn-to-run)", SchedLatencyBuckets),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rc.lastNumGC = ms.NumGC
	return rc
}

// Collect takes one sample of every runtime metric. Safe for
// concurrent use; pause observation is deduplicated under the
// collector's cursor so two racing collects never double-count a GC.
func (rc *RuntimeCollector) Collect() {
	if rc == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rc.goroutines.Set(int64(runtime.NumGoroutine()))
	rc.heapInuse.Set(int64(ms.HeapInuse))
	rc.heapIdle.Set(int64(ms.HeapIdle))
	rc.heapSys.Set(int64(ms.HeapSys))
	rc.nextGC.Set(int64(ms.NextGC))

	rc.mu.Lock()
	last := rc.lastNumGC
	if ms.NumGC > last {
		rc.lastNumGC = ms.NumGC
	}
	rc.mu.Unlock()
	if ms.NumGC > last {
		missed := ms.NumGC - last
		rc.gcCycles.Add(uint64(missed))
		// PauseNs is a circular buffer of the last 256 pause times,
		// indexed by cycle number; replay only the cycles this
		// collector has not yet observed.
		if missed > uint32(len(ms.PauseNs)) {
			missed = uint32(len(ms.PauseNs))
		}
		for i := ms.NumGC - missed + 1; i <= ms.NumGC; i++ {
			pause := ms.PauseNs[(i+uint32(len(ms.PauseNs))-1)%uint32(len(ms.PauseNs))]
			rc.gcPause.Observe(float64(pause) / float64(time.Second))
		}
	}

	// Scheduler-latency proxy: how long a freshly runnable goroutine
	// waits before it actually runs. One spawn per collect keeps the
	// probe itself off the profile.
	start := time.Now()
	woke := make(chan time.Duration, 1)
	go func() { woke <- time.Since(start) }()
	rc.sched.Observe((<-woke).Seconds())
}
