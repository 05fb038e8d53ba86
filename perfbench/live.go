package main

import (
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sfsched/internal/rt"
)

// warmup runs before every measured window so worker pools, intake rings and
// schedulers reach steady state; completions inside it are not counted.
const warmup = 500 * time.Millisecond

// setupReps is how many times each workload is built to time its set-up; the
// reported setup_s is the median.
const setupReps = 25

// itersPerUnit sizes one work unit: about a microsecond of dependent integer
// arithmetic on a current x86 core. Tasks are sized in units, so units_per_s
// counts computation done, whatever mix of task sizes produced it.
const itersPerUnit = 520

// sink keeps the work loop's result observable so the compiler keeps it.
var sink atomic.Uint64

// work burns n work units.
func work(n int) {
	x := uint64(n)*0x9E3779B97F4A7C15 | 1
	for i := n * itersPerUnit; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 { // xorshift never reaches 0 from a non-zero state
		sink.Add(1)
	}
}

// since returns nanoseconds elapsed from base on the monotonic clock.
func since(base time.Time) int64 { return int64(time.Since(base)) }

// sleepUntil sleeps until offset off past base.
func sleepUntil(base time.Time, off time.Duration) {
	if d := time.Until(base.Add(off)); d > 0 {
		time.Sleep(d)
	}
}

// measureSetup builds a workload setupReps times, discarding all builds but
// the last, and returns the last with the median build time in seconds.
func measureSetup[T any](build func() T, discard func(T)) (T, float64) {
	var env T
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			discard(env)
		}
		runtime.GC() // so no build pays for collecting the one before it
		t0 := time.Now()
		env = build()
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC()
	return env, median(times)
}

// liveHeap returns the Go heap the last garbage collection found live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// samplePeriod is the heap sampler's period, and the operator-style Stats()
// scraper's on open-mixed (10 Hz).
const samplePeriod = 100 * time.Millisecond

// sampler tracks the peak live heap during a phase and, when given a scrape
// function, calls it at the operator cadence and times each call.
type sampler struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	peak    uint64
	scrapes []float64 // scrape durations, µs
}

func startSampler(period time.Duration, scrape func()) *sampler {
	s := &sampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
			if scrape != nil {
				t0 := time.Now()
				scrape()
				s.scrapes = append(s.scrapes, float64(time.Since(t0).Nanoseconds())/1e3)
			}
			s.peak = max(s.peak, liveHeap())
		}
	}()
	return s
}

// finish stops the sampler and returns the peak live heap in MB, taking one
// final measurement after a forced collection so the working set at the end
// of the window always counts.
func (s *sampler) finish() float64 {
	close(s.stop)
	s.wg.Wait()
	runtime.GC()
	return float64(max(s.peak, liveHeap())) / (1 << 20)
}

// rtCounts are the runtime counters read through public accessors.
type rtCounts struct {
	dispatches, preempts, handoffs, interims, steals, migrations int64
}

func countRT(rs ...*rt.Runtime) rtCounts {
	var c rtCounts
	for _, r := range rs {
		for _, s := range r.ShardStats() {
			c.dispatches += int64(s.Dispatch.Count)
			c.preempts += s.Preemptions
			c.interims += s.Interims
		}
		c.handoffs += r.Handoffs()
		c.steals += r.Steals()
		c.migrations += r.Migrations()
	}
	return c
}

func (c rtCounts) sub(o rtCounts) rtCounts {
	return rtCounts{c.dispatches - o.dispatches, c.preempts - o.preempts, c.handoffs - o.handoffs,
		c.interims - o.interims, c.steals - o.steals, c.migrations - o.migrations}
}

// addPer1k reports the window's runtime counters per thousand dispatched
// slices, with the dispatch count itself.
func (c rtCounts) addPer1k(rep *report) {
	per := func(n int64) float64 {
		if c.dispatches == 0 {
			return 0
		}
		return 1000 * float64(n) / float64(c.dispatches)
	}
	rep.addLayer("rt.dispatches", float64(c.dispatches), "count", 0)
	rep.addLayer("rt.preempt_flags_per_1k", per(c.preempts), "1/1k", 0)
	rep.addLayer("rt.handoffs_per_1k", per(c.handoffs), "1/1k", 0)
	rep.addLayer("rt.interims_per_1k", per(c.interims), "1/1k", 0)
	rep.addLayer("rt.steals_per_1k", per(c.steals), "1/1k", 0)
	rep.addLayer("rt.migrations_per_1k", per(c.migrations), "1/1k", 0)
}

// wakeCounts returns each named tenant's wakeup count (TenantStat.Wake.Count).
func wakeCounts(r *rt.Runtime) map[string]uint64 {
	m := map[string]uint64{}
	for _, s := range r.Stats() {
		m[s.Name] = s.Wake.Count
	}
	return m
}

// ratios returns each class's received/entitled share, where a class's
// entitlement is its weight's share of everything the classes received
// together.
func ratios(units, weights []float64) []float64 {
	var tu, tw float64
	for i := range units {
		tu += units[i]
		tw += weights[i]
	}
	out := make([]float64, len(units))
	for i := range units {
		if tu > 0 {
			out[i] = units[i] / (tu * weights[i] / tw)
		}
	}
	return out
}

// classSums folds per-tenant units into per-weight classes, returning each
// class's units and total weight.
func classSums(units, weights []float64) ([]float64, []float64) {
	idx := map[float64]int{}
	var cu, cw []float64
	for i, w := range weights {
		k, ok := idx[w]
		if !ok {
			k = len(cu)
			idx[w] = k
			cu = append(cu, 0)
			cw = append(cw, 0)
		}
		cu[k] += units[i]
		cw[k] += w
	}
	return cu, cw
}

// shareRatioMin is the smallest of ratios.
func shareRatioMin(units, weights []float64) float64 {
	rs := ratios(units, weights)
	if len(rs) == 0 {
		return 0
	}
	return slices.Min(rs)
}

// checkRuntime runs the end-of-phase checks every live runtime must pass.
func checkRuntime(rep *report, name string, r *rt.Runtime) {
	err := r.CheckInvariants()
	rep.check(err == nil, "%s: runtime invariants: %v", name, err)
	rep.check(r.TaskPanics() == 0, "%s: %d task panics", name, r.TaskPanics())
}

// latencyChunks is how many consecutive slices of the samples the p99 is
// averaged over (fewer when there are not 1000 samples per slice).
const latencyChunks = 20

// latencyE2E reports the workload's latency: the median over all samples,
// and the mean over up to latencyChunks consecutive slices of the samples of
// each slice's 99th percentile. Every slice holds at least 1000 samples, so
// each p99 has ten beyond it; averaging over slices steadies a tail that the
// Go scheduler quantizes into steps of its preemption period. us must be in
// completion or due-time order.
func latencyE2E(rep *report, us []float64) {
	n := len(us)
	rep.check(n >= 1000, "only %d latency samples; p99 needs 1000 to leave ten beyond it", n)
	k := max(1, min(latencyChunks, n/1000))
	p99s := make([]float64, k)
	var mean float64
	for c := range p99s {
		p99s[c] = quantile(us[c*n/k:(c+1)*n/k], 0.99)
		mean += p99s[c] / float64(k)
	}
	rep.addE2E("latency_p50_us", quantile(us, 0.50), "us", n)
	rep.addE2E("latency_p99_us", mean, "us", n)
	rep.note("latency p99 of each slice of %d samples: %.0f", n/k, p99s)
}

// absent reports per-layer metrics the workload does not exercise as 0, so
// every traced run carries the full declared set; the note says which.
func absent(rep *report, names ...string) {
	for _, n := range names {
		rep.addLayer(n, 0, rep.units[n], 0)
	}
	rep.note("not exercised by this workload (reported as 0): %v", names)
}

// rtAbsent lists the concurrent-runtime metrics, for workloads without one.
var rtAbsent = []string{"rt.submit.p50_ns", "rt.submit.p99_ns", "rt.submit.calls",
	"rt.queue_wait.p50_us", "rt.queue_wait.p99_us", "rt.outside_task_frac", "rt.spurious_wake_frac",
	"rt.dispatches", "rt.preempt_flags_per_1k", "rt.handoffs_per_1k", "rt.interims_per_1k",
	"rt.steals_per_1k", "rt.migrations_per_1k"}

var machineAbsent = []string{"machine.dispatches", "machine.ns_per_dispatch",
	"machine.context_switches", "machine.sim_speed_x"}

var statsAbsent = []string{"rt.stats.p50_us", "rt.stats.p95_us", "rt.stats.calls"}

// overhead reports the tracing overhead: how much the traced phase's
// throughput fell and its median latency rose against the untraced phase of
// the same run.
func overhead(rep *report, untraced, traced phaseE2E) {
	frac := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		return (b - a) / a
	}
	rep.addLayer("trace.overhead.units_frac", -frac(untraced.units, traced.units), "frac", 0)
	rep.addLayer("trace.overhead.latency_p50_frac", frac(untraced.latP50, traced.latP50), "frac", 0)
}

// phaseE2E is the end-to-end summary of one phase, kept to compare the
// traced phase against the untraced one.
type phaseE2E struct {
	units, latP50 float64
}
