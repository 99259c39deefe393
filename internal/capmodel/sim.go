package capmodel

import (
	"container/heap"
	"math/rand"

	"maxelerator/internal/load"
)

// Fleet describes the serving configuration under simulation — the
// knobs an operator actually turns on maxd/maxgw.
type Fleet struct {
	// Backends is the number of maxd instances behind the gateway;
	// sessions route round-robin (the gateway's least-loaded choice
	// converges to round-robin when every session is the same shape).
	Backends int `json:"backends"`
	// MaxSessions is each backend's -max-sessions; 0 = unlimited.
	MaxSessions int `json:"max_sessions"`
	// AdmissionWaitSec is each backend's -admission-wait in seconds;
	// with MaxSessions > 0, a session queuing longer is shed BUSY.
	// <= 0 queues without bound, as the backend does.
	AdmissionWaitSec float64 `json:"admission_wait_sec"`
	// CPUs is the compute parallelism per backend: concurrent OT
	// setups plus request services in flight (default 1).
	CPUs int `json:"cpus"`
	// PoolDepth is each backend's precompute pool size
	// (-precompute-pool), refilled by one background worker as in
	// precompute.Engine; 0 disables the pool (every request garbles
	// inline).
	PoolDepth int `json:"pool_depth"`
	// WarmStart begins the run with every pool at full depth — a
	// daemon that has been up for a while; false models a cold boot.
	WarmStart bool `json:"warm_start"`
}

func (f Fleet) withDefaults() Fleet {
	if f.Backends <= 0 {
		f.Backends = 1
	}
	if f.CPUs <= 0 {
		f.CPUs = 1
	}
	return f
}

// Result is the simulator's prediction, shaped like the live
// generator's report plus simulation-only visibility.
type Result struct {
	load.Report
	// Fleet echoes the simulated configuration.
	Fleet Fleet `json:"fleet"`
	// CalibrationSource names where service times came from.
	CalibrationSource string `json:"calibration_source"`
	// StageMeans are the calibration's stage means (seconds).
	StageMeans map[string]float64 `json:"stage_means"`
	// MeanAdmissionWaitMs is the average time admitted sessions spent
	// queued behind MaxSessions.
	MeanAdmissionWaitMs float64 `json:"mean_admission_wait_ms"`
	// MeanCPUWaitMs is the average time jobs queued for a CPU slot.
	MeanCPUWaitMs float64 `json:"mean_cpu_wait_ms"`
	// CPUUtilization is busy CPU-seconds over available CPU-seconds
	// across the arrival window.
	CPUUtilization float64 `json:"cpu_utilization"`
}

// event is one scheduled state transition. seq breaks time ties
// deterministically: equal-time events fire in scheduling order.
type event struct {
	at   float64
	seq  int
	fire func(t float64)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// station is a capacity-limited FIFO resource (the CPU pool, the
// refill worker): jobs acquire a slot, hold it for a service
// time, release it to the next waiter.
type station struct {
	cap     int
	busy    int
	queue   []stationJob
	sim     *sim
	waitSum float64
	waited  int
	busySum float64 // busy-time integral for utilization
}

type stationJob struct {
	since float64
	start func(at float64)
}

// run enqueues a job: service is sampled when the job actually starts
// (start order is deterministic, so so is the sampling order); done
// fires at completion.
func (st *station) run(t float64, service func() float64, done func(t float64)) {
	start := func(at float64) {
		st.busy++
		d := service()
		st.busySum += d
		st.sim.schedule(at+d, func(end float64) {
			st.busy--
			st.next(end)
			done(end)
		})
	}
	if st.busy < st.cap {
		start(t)
		return
	}
	st.queue = append(st.queue, stationJob{since: t, start: start})
}

// next releases a freed slot to the head waiter.
func (st *station) next(t float64) {
	if len(st.queue) == 0 || st.busy >= st.cap {
		return
	}
	j := st.queue[0]
	st.queue = st.queue[1:]
	st.waitSum += t - j.since
	st.waited++
	j.start(t)
}

// admWaiter is a session queued behind a backend's MaxSessions limit.
type admWaiter struct {
	since float64
	shed  bool // set when the admission-wait deadline fired first
	admit func(t float64)
}

// backend is one simulated maxd.
type backend struct {
	sim     *sim
	fl      Fleet
	cpu     *station
	refill  *station
	pool    int // warm entries
	backlog int // refill jobs outstanding
	active  int // admitted sessions in flight
	admQ    []*admWaiter
	admWait float64
	admN    int
}

func newBackend(s *sim, fl Fleet) *backend {
	b := &backend{
		sim:    s,
		fl:     fl,
		cpu:    &station{cap: fl.CPUs, sim: s},
		refill: &station{cap: 1, sim: s},
	}
	if fl.WarmStart {
		b.pool = fl.PoolDepth
	}
	return b
}

// admit runs the backend's admission semantics (internal/backend): a
// free slot admits immediately; otherwise the session queues — up to
// AdmissionWaitSec and then shed, or without bound when
// AdmissionWaitSec <= 0.
func (b *backend) admit(t float64, admitted func(t float64), shedFn func(t float64)) {
	if b.fl.MaxSessions <= 0 || b.active < b.fl.MaxSessions {
		b.active++
		admitted(t)
		return
	}
	w := &admWaiter{since: t, admit: admitted}
	b.admQ = append(b.admQ, w)
	if b.fl.AdmissionWaitSec <= 0 {
		return
	}
	b.sim.schedule(t+b.fl.AdmissionWaitSec, func(at float64) {
		if w.shed || w.admit == nil {
			return
		}
		w.shed = true
		b.dropWaiter(w)
		shedFn(at)
	})
}

func (b *backend) dropWaiter(w *admWaiter) {
	for i, q := range b.admQ {
		if q == w {
			b.admQ = append(b.admQ[:i], b.admQ[i+1:]...)
			return
		}
	}
}

// release frees a session slot to the longest-queued live waiter.
func (b *backend) release(t float64) {
	b.active--
	for len(b.admQ) > 0 {
		w := b.admQ[0]
		b.admQ = b.admQ[1:]
		if w.shed {
			continue
		}
		b.admWait += t - w.since
		b.admN++
		admit := w.admit
		w.admit = nil
		b.active++
		admit(t)
		return
	}
}

// takePool consumes one warm entry and reports whether the request
// hit. Either way it leaves a refill job outstanding for every missing
// entry, as the engine's worker fills the pool back to its target.
func (b *backend) takePool(t float64, cal *Calibration, rng *rand.Rand) bool {
	if b.fl.PoolDepth <= 0 {
		return false
	}
	hit := b.pool > 0
	if hit {
		b.pool--
	}
	for deficit := b.fl.PoolDepth - b.pool - b.backlog; deficit > 0; deficit-- {
		b.backlog++
		b.refill.run(t,
			func() float64 { return cal.Refill.Sample(rng) },
			func(float64) {
				b.backlog--
				if b.pool < b.fl.PoolDepth {
					b.pool++
				}
			})
	}
	return hit
}

// sim is one simulation run's mutable state.
type sim struct {
	events eventHeap
	seq    int
	now    float64
}

func (s *sim) schedule(at float64, fire func(t float64)) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, fire: fire})
}

func (s *sim) drain() {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		s.now = e.at
		e.fire(e.at)
	}
}

// Simulate replays the scenario's exact arrival schedule (the same
// load.ArrivalTimes the live generator paces by) through the fleet
// model and predicts the run's report. Deterministic: the same
// scenario, fleet and calibration produce a byte-identical Result.
func Simulate(sc load.Scenario, fl Fleet, cal *Calibration) (*Result, error) {
	arrivals, err := load.ArrivalTimes(sc)
	if err != nil {
		return nil, err
	}
	fl = fl.withDefaults()
	// A dedicated stream, decoupled from the schedule's: service
	// sampling must not perturb arrivals.
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x7ac0_ffee_c0de_55aa))
	s := &sim{}
	backends := make([]*backend, fl.Backends)
	for i := range backends {
		backends[i] = newBackend(s, fl)
	}

	res := &Result{Fleet: fl, CalibrationSource: cal.Source, StageMeans: cal.Describe()}
	res.Scenario = sc
	res.Offered = len(arrivals)
	inflight := 0
	var latencies []float64
	var poolHits, poolMisses uint64

	for i, arrived := range arrivals {
		s.schedule(arrived, func(t float64) {
			if sc.MaxInflight > 0 && inflight >= sc.MaxInflight {
				res.Skipped++
				return
			}
			inflight++
			res.Started++
			b := backends[i%len(backends)]
			finish := func(end float64, ok bool) {
				inflight--
				if ok {
					res.Succeeded++
					latencies = append(latencies, end-arrived+cal.Overhead)
				}
			}
			b.admit(t,
				func(at float64) {
					// Admitted: OT setup on a CPU slot, then the request.
					b.cpu.run(at,
						func() float64 { return cal.OTSetup.Sample(rng) },
						func(otEnd float64) {
							hit := b.takePool(otEnd, cal, rng)
							if hit {
								poolHits++
							} else {
								poolMisses++
							}
							b.cpu.run(otEnd,
								func() float64 {
									if hit {
										return cal.RequestWarm.Sample(rng)
									}
									return cal.RequestCold.Sample(rng)
								},
								func(end float64) {
									b.release(end)
									finish(end, true)
								})
						})
				},
				func(at float64) {
					res.Shed++
					finish(at, false)
				})
		})
	}
	s.drain()

	res.Finalize(latencies)
	if fl.PoolDepth > 0 {
		res.Pool = load.NewPoolStats(poolHits, poolMisses)
	}
	var admWait, cpuWait float64
	var admN, cpuN int
	var busySum float64
	for _, b := range backends {
		admWait += b.admWait
		admN += b.admN
		cpuWait += b.cpu.waitSum
		cpuN += b.cpu.waited
		busySum += b.cpu.busySum
	}
	if admN > 0 {
		res.MeanAdmissionWaitMs = admWait / float64(admN) * 1000
	}
	if cpuN > 0 {
		res.MeanCPUWaitMs = cpuWait / float64(cpuN) * 1000
	}
	if window := sc.DurationSec * float64(fl.Backends*fl.CPUs); window > 0 {
		res.CPUUtilization = busySum / window
	}
	return res, nil
}
