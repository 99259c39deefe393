package main

// Measurement helpers owned by the benchmark: quantiles, process CPU,
// heap counters and the /proc readers. They deliberately duplicate the
// few lines internal/load, internal/benchgrid and obs each carry, so
// that merging those (ROADMAP item 3) cannot change what maxperf
// reports.

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile reads the q-quantile (0..1) of vals by linear interpolation
// between closest ranks. vals is not modified. It returns 0 for an
// empty slice.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// spread is the run-to-run dispersion A/A mode holds against a bound:
// the distance between the first and third quartile as a share of the
// median. The quartiles are those of Python's statistics.quantiles(v,
// n=4), which the benchmark driver uses; below four values it is the
// full range instead.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 || len(vals) < 2 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 4 {
		return (s[n-1] - s[0]) / m
	}
	quartile := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (quartile(3) - quartile(1)) / m
}

// ratio is a/b, and 0 where there is nothing to divide by: a metric is
// always a number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuTime is the process's user+system CPU so far. Client and backend
// share the process, so this is both endpoints.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapMark is a GC-fenced snapshot of the allocation counters.
type heapMark struct {
	mallocs, bytes uint64
	cycles         uint32
	pauseNs        uint64
	heapAlloc      uint64
}

func markHeap(fence bool) heapMark {
	if fence {
		runtime.GC()
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return heapMark{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs, m.HeapAlloc}
}

// mallocs is the cheap (no stop-the-world) allocation count the layer
// replay brackets small loops with.
func mallocs() (objects, bytes uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampler tracks the in-use heap high-water mark of a traced run
// from runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{
			{Name: "/memory/classes/heap/objects:bytes"},
			{Name: "/memory/classes/heap/unused:bytes"},
		}
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler, waits for it and returns the high-water
// mark in MiB. It may be called more than once.
func (h *heapSampler) peakMB() float64 {
	h.once.Do(func() { close(h.stop) })
	h.wg.Wait()
	return float64(h.peak) / (1 << 20)
}

// peakRSSMB is VmHWM of this process in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// hostCPU is the aggregate line of /proc/stat: total and stolen ticks.
func hostCPU() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		if i == 0 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		// user nice system idle iowait irq softirq steal; guest time
		// (fields 9, 10) is already inside user and nice.
		if i <= 8 {
			total += v
		}
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

func loadavg1m() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
