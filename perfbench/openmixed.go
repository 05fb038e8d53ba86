package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// open-mixed: the paper's Figure 6(c) shape on the live runtime. Batch
// tenants resubmit their next task from inside the running one, which is the
// pattern where a completion can find its successor still in the intake ring
// and the tenant re-enters as a wakeup; interactive tenants receive Poisson
// arrivals far below their entitlement.
const (
	omClasses       = 4    // batch weights 1..omClasses
	omPerClass      = 4    // batch tenants per weight
	omBatchUnits    = 1000 // ≈1 ms per batch task
	omInterTenants  = 256
	omInterUnits    = 30   // ≈30 µs per interactive task
	omInterRate     = 3000 // interactive arrivals per second, all tenants together
	omQuantum       = 10 * simtime.Millisecond
	omArrivalStream = 1
)

type omBatch struct {
	tn       *rt.Tenant
	weight   float64
	task     rt.Task
	accepted atomic.Int64
	done     atomic.Int64
	inWin    atomic.Int64
}

// omReq is one interactive arrival's record; each field has one writer.
type omReq struct {
	subStart, subEnd int64 // generator, traced only
	runStart, end    int64 // task closure
	runs             atomic.Int32
	accepted         bool
}

type openMixed struct {
	r        *rt.Runtime
	batch    []*omBatch
	inter    []*rt.Tenant
	arrivals []arrival
	reqs     []omReq

	base             time.Time
	winStart, winEnd int64
	traced           bool
	stop             atomic.Bool
	attempted        atomic.Int64 // SubmitTask calls in the phase
	failed           atomic.Int64 // SubmitTask calls refused
	busy             atomic.Int64 // ns inside task closures that ended in the window (traced)
	interWin         atomic.Int64 // interactive completions in the window
}

func buildOpenMixed(seed uint64, window time.Duration) *openMixed {
	n := runtime.GOMAXPROCS(0)
	e := &openMixed{r: rt.New(rt.Config{Workers: n, Shards: n, Quantum: omQuantum,
		Preempt: true, Steal: true, Enforce: true})}
	for c := 1; c <= omClasses; c++ {
		for k := 0; k < omPerClass; k++ {
			b := &omBatch{weight: float64(c)}
			tn, err := e.r.Register(fmt.Sprintf("batch-w%d-%d", c, k), b.weight)
			if err != nil {
				panic(err) // a fresh runtime accepts any positive weight
			}
			b.tn = tn
			b.task = e.batchTask(b)
			e.batch = append(e.batch, b)
		}
	}
	for i := 0; i < omInterTenants; i++ {
		tn, err := e.r.Register(fmt.Sprintf("inter-%d", i), 1)
		if err != nil {
			panic(err)
		}
		e.inter = append(e.inter, tn)
	}
	e.arrivals = poissonSchedule(seed, omArrivalStream, omInterRate, warmup+window, omInterTenants)
	e.reqs = make([]omReq, len(e.arrivals))
	return e
}

// batchTask is a batch tenant's task: about 1 ms of work, then — until the
// phase stops — the submission of its own successor from inside the closure.
func (e *openMixed) batchTask(b *omBatch) rt.Task {
	var task rt.Task
	task = func(simtime.Duration) bool {
		var t0 int64
		if e.traced {
			t0 = since(e.base)
		}
		work(omBatchUnits)
		t := since(e.base)
		b.done.Add(1)
		if t >= e.winStart && t < e.winEnd {
			b.inWin.Add(1)
			if e.traced {
				e.busy.Add(t - t0)
			}
		}
		if !e.stop.Load() {
			e.submitBatch(b, task)
		}
		return true
	}
	return task
}

func (e *openMixed) submitBatch(b *omBatch, task rt.Task) {
	e.attempted.Add(1)
	if err := b.tn.SubmitTask(task, rt.NoWait()); err != nil {
		e.failed.Add(1)
		return
	}
	b.accepted.Add(1)
}

func (e *openMixed) interTask(q *omReq) rt.Task {
	return func(simtime.Duration) bool {
		var t0 int64
		if e.traced {
			t0 = since(e.base)
			q.runStart = t0
		}
		work(omInterUnits)
		q.end = since(e.base)
		q.runs.Add(1)
		if q.end >= e.winStart && q.end < e.winEnd {
			e.interWin.Add(1)
			if e.traced {
				e.busy.Add(q.end - t0)
			}
		}
		return true
	}
}

func runOpenMixed(cfg runConfig, rep *report) {
	env, setup := measureSetup(func() *openMixed { return buildOpenMixed(cfg.seed, cfg.window) },
		func(e *openMixed) { e.r.Close() })
	rep.addE2E("setup_s", setup, "s", setupReps)
	untraced := env.run(rep, cfg, false)
	if !cfg.traced {
		return
	}
	env = buildOpenMixed(cfg.seed, cfg.window)
	runtime.GC()
	traced := env.run(rep, cfg, true)
	overhead(rep, untraced, traced)
	var ws []float64
	for _, b := range env.batch {
		ws = append(ws, b.weight)
	}
	for range env.inter {
		ws = append(ws, 1)
	}
	ladder(rep, ws, true)
	absent(rep, append(machineAbsent, "trace.session.self_p50_us", "cluster.migrations")...)
}

// run executes one phase: warm-up, the measured window, then drain and the
// correctness checks. The untraced phase reports the end-to-end metrics; the
// traced one the per-layer metrics and spans.
func (e *openMixed) run(rep *report, cfg runConfig, traced bool) phaseE2E {
	e.traced = traced
	e.winStart, e.winEnd = int64(warmup), int64(warmup+cfg.window)
	e.base = time.Now()
	for _, b := range e.batch {
		e.submitBatch(b, b.task)
	}
	smp := startSampler(samplePeriod, func() { e.r.Stats() })
	var gen sync.WaitGroup
	gen.Add(1)
	go func() {
		defer gen.Done()
		replay(e.arrivals, e.base, func(i int) {
			q := &e.reqs[i]
			tn := e.inter[e.arrivals[i].Target]
			if traced {
				q.subStart = since(e.base)
			}
			e.attempted.Add(1)
			err := tn.SubmitTask(e.interTask(q), rt.NoWait())
			if traced {
				q.subEnd = since(e.base)
			}
			q.accepted = err == nil
			if err != nil {
				e.failed.Add(1)
			}
		})
	}()
	sleepUntil(e.base, warmup)
	c0, w0 := countRT(e.r), wakeCounts(e.r)
	sleepUntil(e.base, warmup+cfg.window)
	c1, w1 := countRT(e.r), wakeCounts(e.r)
	e.stop.Store(true)
	gen.Wait()
	e.r.Drain()
	memMB := smp.finish()

	// Correctness: every accepted task ran exactly once, nothing is left.
	for i := range e.reqs {
		q := &e.reqs[i]
		want := int32(0)
		if q.accepted {
			want = 1
		}
		if n := q.runs.Load(); n != want {
			rep.check(false, "open-mixed: arrival %d ran %d times, want %d", i, n, want)
			break
		}
	}
	var batchWin, batchW []float64
	var batchDone, wakes int64
	for _, b := range e.batch {
		rep.check(b.done.Load() == b.accepted.Load(), "open-mixed: %s accepted %d tasks, completed %d",
			b.tn.Name(), b.accepted.Load(), b.done.Load())
		batchWin = append(batchWin, float64(b.inWin.Load()))
		batchW = append(batchW, b.weight)
		batchDone += b.inWin.Load()
		wakes += int64(w1[b.tn.Name()] - w0[b.tn.Name()])
	}
	checkRuntime(rep, "open-mixed", e.r)
	e.r.Close()
	rep.ops(e.attempted.Load(), e.failed.Load())

	// Share per weight class from the benchmark's own completion counts.
	classUnits, classW := classSums(batchWin, batchW)
	var lat, late, sub, wait []float64
	var spans []span
	for i := range e.reqs {
		q := &e.reqs[i]
		due := int64(e.arrivals[i].At)
		if !q.accepted || due < e.winStart || due >= e.winEnd {
			continue
		}
		lat = append(lat, float64(q.end-due)/1e3)
		if traced {
			late = append(late, float64(q.subStart-due)/1e3)
			sub = append(sub, float64(q.subEnd-q.subStart))
			wait = append(wait, float64(max(0, q.runStart-q.subEnd))/1e3)
			id := int64(i)
			spans = append(spans,
				span{id, "request", "", due, q.end},
				span{id, "submit", "request", q.subStart, q.subEnd},
				span{id, "queued", "request", q.subEnd, max(q.subEnd, q.runStart)},
				span{id, "run", "request", q.runStart, q.end})
		}
	}
	win := cfg.window.Seconds()
	units := (float64(batchDone)*omBatchUnits + float64(e.interWin.Load())*omInterUnits) / win
	out := phaseE2E{units: units, latP50: quantile(lat, 0.5)}
	if !traced {
		rep.addE2E("units_per_s", units, "1/s", 0)
		rep.addE2E("share_ratio_min", shareRatioMin(classUnits, classW), "ratio", 0)
		latencyE2E(rep, lat)
		rep.addE2E("mem_peak_mb", memMB, "MB", 0)
		rep.note("open-mixed batch share per class w=1..4: %.3f", ratios(classUnits, classW))
		return out
	}
	rep.addLayer("gen.late_p99_us", quantile(late, 0.99), "us", len(late))
	rep.addLayer("gen.arrivals", float64(len(late)), "count", 0)
	rep.addLayer("rt.submit.p50_ns", quantile(sub, 0.5), "ns", len(sub))
	rep.addLayer("rt.submit.p99_ns", quantile(sub, 0.99), "ns", len(sub))
	rep.addLayer("rt.submit.calls", float64(len(sub)), "count", 0)
	rep.addLayer("rt.queue_wait.p50_us", quantile(wait, 0.5), "us", len(wait))
	rep.addLayer("rt.queue_wait.p99_us", quantile(wait, 0.99), "us", len(wait))
	rep.addLayer("rt.outside_task_frac", 1-float64(e.busy.Load())/(float64(e.r.Workers())*float64(cfg.window)), "frac", 0)
	spurious := 0.0
	if batchDone > 0 {
		spurious = float64(wakes) / float64(batchDone)
	}
	rep.addLayer("rt.spurious_wake_frac", spurious, "frac", 0)
	c1.sub(c0).addPer1k(rep)
	rep.addLayer("rt.stats.p50_us", quantile(smp.scrapes, 0.5), "us", len(smp.scrapes))
	rep.addLayer("rt.stats.p95_us", quantile(smp.scrapes, 0.95), "us", len(smp.scrapes))
	rep.addLayer("rt.stats.calls", float64(len(smp.scrapes)), "count", 0)
	reportSpans(rep, cfg, "request", spans)
	return out
}
