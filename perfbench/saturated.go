package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// saturated: a closed loop that keeps every worker on pick → charge over a
// 1024-entry runnable set behind one central lock. Nothing wakes, migrates,
// steals or is enforced, so this is the control for changes to those paths
// and the workload where a core/engine/shard change shows.
const (
	satTenants = 1024
	satWeights = 8  // weights 1..satWeights
	satUnits   = 25 // ≈25 µs per slice
	satQuantum = simtime.Millisecond
	// Latency samples come from every satSampleEvery-th tenant into a store
	// allocated at set-up, so the benchmark's own heap does not grow with
	// the throughput it measures.
	satSampleEvery = 8
	satSampleCap   = 1 << 18
)

// satTenant is one tenant's continuation task and what it observed. A
// tenant's slices run one at a time, so its own fields need no locking.
type satTenant struct {
	tn      *rt.Tenant
	weight  float64
	task    rt.Task
	inWin   int64
	last    int64 // end of the previous slice, ns from base
	sampled bool  // records its completion gaps
	busy    int64 // ns inside the closure in the window (traced)
	done    atomic.Int32
}

type saturated struct {
	r                *rt.Runtime
	ts               []*satTenant
	base             time.Time
	winStart, winEnd int64
	traced           bool
	stop             atomic.Bool
	submits          []float64  // SubmitTask durations at set-up, ns (traced)
	gaps             [][2]int32 // completion instant and gap to the previous one, µs
	ngaps            atomic.Int64
	attempted        int64
	failed           int64
}

func buildSaturated(seed uint64) *saturated {
	e := &saturated{r: rt.New(rt.Config{Workers: runtime.GOMAXPROCS(0), Shards: 1, Quantum: satQuantum}),
		gaps: make([][2]int32, satSampleCap)}
	r := rng(seed, 2)
	for i := 0; i < satTenants; i++ {
		t := &satTenant{weight: float64(1 + r.Intn(satWeights)), sampled: i%satSampleEvery == 0}
		tn, err := e.r.Register(fmt.Sprintf("sat-%d", i), t.weight)
		if err != nil {
			panic(err) // a fresh runtime accepts any positive weight
		}
		t.tn = tn
		t.task = e.continuation(t)
		e.ts = append(e.ts, t)
	}
	return e
}

// continuation runs one short work unit per dispatch and reports itself
// unfinished until the phase stops, so the tenant never blocks.
func (e *saturated) continuation(t *satTenant) rt.Task {
	return func(simtime.Duration) bool {
		var t0 int64
		if e.traced {
			t0 = since(e.base)
		}
		work(satUnits)
		now := since(e.base)
		if now >= e.winStart && now < e.winEnd {
			t.inWin++
			if t.sampled && t.last >= e.winStart {
				if i := e.ngaps.Add(1) - 1; i < satSampleCap {
					e.gaps[i] = [2]int32{int32(now / 1e3), int32((now - t.last) / 1e3)}
				}
			}
			if e.traced {
				t.busy += now - t0
			}
		}
		t.last = now
		if e.stop.Load() {
			t.done.Add(1)
			return true
		}
		return false
	}
}

func runSaturated(cfg runConfig, rep *report) {
	env, setup := measureSetup(func() *saturated { return buildSaturated(cfg.seed) },
		func(e *saturated) { e.r.Close() })
	rep.addE2E("setup_s", setup, "s", setupReps)
	untraced := env.run(rep, cfg, false)
	if !cfg.traced {
		return
	}
	env = buildSaturated(cfg.seed)
	runtime.GC()
	traced := env.run(rep, cfg, true)
	overhead(rep, untraced, traced)
	ws := make([]float64, len(env.ts))
	for i, t := range env.ts {
		ws[i] = t.weight
	}
	ladder(rep, ws, true)
	absent(rep, append(append([]string{"gen.late_p99_us", "gen.arrivals", "rt.queue_wait.p50_us",
		"rt.queue_wait.p99_us", "trace.spans", "trace.request.self_p50_us", "trace.session.self_p50_us",
		"cluster.migrations"},
		statsAbsent...), machineAbsent...)...)
}

func (e *saturated) run(rep *report, cfg runConfig, traced bool) phaseE2E {
	e.traced = traced
	e.winStart, e.winEnd = int64(warmup), int64(warmup+cfg.window)
	e.base = time.Now()
	for _, t := range e.ts {
		t0 := time.Now()
		err := t.tn.SubmitTask(t.task)
		if traced {
			e.submits = append(e.submits, float64(time.Since(t0).Nanoseconds()))
		}
		e.attempted++
		if err != nil {
			e.failed++
			t.done.Add(1) // never accepted, so never expected to finish
		}
	}
	smp := startSampler(samplePeriod, nil)
	sleepUntil(e.base, warmup)
	c0, w0 := countRT(e.r), wakeCounts(e.r)
	sleepUntil(e.base, warmup+cfg.window)
	c1, w1 := countRT(e.r), wakeCounts(e.r)
	e.stop.Store(true)
	e.r.Drain()
	memMB := smp.finish()

	var units, weights []float64
	var done, busy, wakes int64
	for _, t := range e.ts {
		if n := t.done.Load(); n != 1 {
			rep.check(false, "saturated: %s finished %d times, want 1", t.tn.Name(), n)
		}
		units = append(units, float64(t.inWin))
		weights = append(weights, t.weight)
		done += t.inWin
		busy += t.busy
		wakes += int64(w1[t.tn.Name()] - w0[t.tn.Name()])
	}
	recorded := e.gaps[:min(e.ngaps.Load(), satSampleCap)]
	slices.SortFunc(recorded, func(a, b [2]int32) int { return cmp.Compare(a[0], b[0]) })
	gaps := make([]float64, len(recorded))
	for i, g := range recorded {
		gaps[i] = float64(g[1])
	}
	checkRuntime(rep, "saturated", e.r)
	e.r.Close()
	rep.ops(e.attempted, e.failed)

	rate := float64(done) * satUnits / cfg.window.Seconds()
	out := phaseE2E{units: rate, latP50: quantile(gaps, 0.5)}
	if !traced {
		rep.addE2E("units_per_s", rate, "1/s", 0)
		rep.addE2E("share_ratio_min", shareRatioMin(classSums(units, weights)), "ratio", 0)
		latencyE2E(rep, gaps)
		rep.addE2E("mem_peak_mb", memMB, "MB", 0)
		return out
	}
	rep.addLayer("rt.submit.p50_ns", quantile(e.submits, 0.5), "ns", len(e.submits))
	rep.addLayer("rt.submit.p99_ns", quantile(e.submits, 0.99), "ns", len(e.submits))
	rep.addLayer("rt.submit.calls", float64(len(e.submits)), "count", 0)
	rep.addLayer("rt.outside_task_frac", 1-float64(busy)/(float64(e.r.Workers())*float64(cfg.window)), "frac", 0)
	spurious := 0.0
	if done > 0 {
		spurious = float64(wakes) / float64(done)
	}
	rep.addLayer("rt.spurious_wake_frac", spurious, "frac", 0)
	c1.sub(c0).addPer1k(rep)
	return out
}
