package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"sfsched/internal/cluster"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// cluster-churn: Poisson-arriving sessions that register, run a few short
// tasks, change weight partway and unregister, beside long-lived backlogged
// tenants whose skewed weights keep the migrator busy. It is the only
// workload that runs k-choices placement, tenant-lifecycle writes and
// cross-machine Deport/Admit.
const (
	chLongUnits     = 200 // ≈200 µs per long-lived slice
	chSessionTasks  = 4
	chSessionUnits  = 100 // ≈100 µs per session task
	chSessionRate   = 800 // session arrivals per second
	chSessionWeight = 4   // session weights 1..chSessionWeight
	chQuantum       = simtime.Millisecond
	chSessionStream = 3
)

// chLongWeights are the long-lived tenants' weights: skewed, so no placement
// balances the machines for long once sessions come and go, and two tenants
// per weight, so each weight class's share is measured over two tenants.
var chLongWeights = []float64{1, 1, 2, 2, 4, 4, 8, 8}

type chLong struct {
	t      *cluster.Tenant
	weight float64
	task   rt.Task
	inWin  int64
	done   atomic.Int32
}

// chSession is one session's record. The generator registers the session
// and submits its first task; from then on each task, as it completes, issues
// the session's next call from inside its closure — submit the next task,
// change the weight halfway, unregister after the last — the way an
// event-driven server continues a request. The session's closures run one at
// a time, so the fields they write need no locking.
type chSession struct {
	weight, reweight float64
	t                *cluster.Tenant
	task             rt.Task
	reg, unreg, setw [2]int64 // call start/end, ns from base
	submits          [chSessionTasks][2]int64
	runs             int32
	last             int64 // end of the last task, ns from base
	ok               bool  // every call of the session succeeded
}

type churn struct {
	c        *cluster.Cluster
	nodes    []*rt.Runtime
	long     []*chLong
	arrivals []arrival
	sess     []chSession

	base             time.Time
	winStart, winEnd int64
	traced           bool
	stop             atomic.Bool
	attempted        atomic.Int64
	failed           atomic.Int64
	sessUnits        atomic.Int64 // session task completions in the window
	busy             atomic.Int64 // ns inside closures ending in the window (traced)
}

func buildChurn(seed uint64, window time.Duration) *churn {
	n := runtime.GOMAXPROCS(0)
	c, err := cluster.New(cluster.Config{Machines: n, Workers: 1, K: 2, Quantum: chQuantum, Seed: seed})
	if err != nil {
		panic(err) // static configuration
	}
	e := &churn{c: c}
	for i := 0; i < c.Machines(); i++ {
		e.nodes = append(e.nodes, c.Node(i).(*rt.Runtime))
	}
	for i, w := range chLongWeights {
		l := &chLong{weight: w}
		t, err := c.Register(fmt.Sprintf("long-%d", i), w)
		if err != nil {
			panic(err)
		}
		l.t = t
		l.task = e.longTask(l)
		e.long = append(e.long, l)
	}
	e.arrivals = poissonSchedule(seed, chSessionStream, chSessionRate, warmup+window, 1)
	e.sess = make([]chSession, len(e.arrivals))
	r := rng(seed, chSessionStream+1)
	for i := range e.sess {
		s := &e.sess[i]
		s.weight = float64(1 + r.Intn(chSessionWeight))
		s.reweight = float64(1 + r.Intn(chSessionWeight))
	}
	return e
}

func (e *churn) longTask(l *chLong) rt.Task {
	return func(simtime.Duration) bool {
		var t0 int64
		if e.traced {
			t0 = since(e.base)
		}
		work(chLongUnits)
		now := since(e.base)
		if now >= e.winStart && now < e.winEnd {
			l.inWin++
			if e.traced {
				e.busy.Add(now - t0)
			}
		}
		if e.stop.Load() {
			l.done.Add(1)
			return true
		}
		return false
	}
}

// call times one session call into at and counts it.
func (e *churn) call(at *[2]int64, f func() error) bool {
	e.attempted.Add(1)
	at[0] = since(e.base)
	err := f()
	at[1] = since(e.base)
	if err != nil {
		e.failed.Add(1)
	}
	return err == nil
}

// start is the generator's part of a session: register it, submit its first
// task.
func (e *churn) start(i int) {
	s := &e.sess[i]
	if !e.call(&s.reg, func() (err error) {
		s.t, err = e.c.Register(fmt.Sprintf("session-%d", i), s.weight)
		return err
	}) {
		return
	}
	s.task = e.sessionTask(s)
	// ok is set before the submission: once it is accepted, the session's
	// closures own the record.
	s.ok = true
	if !e.call(&s.submits[0], func() error { return s.t.SubmitTask(s.task, rt.NoWait()) }) {
		s.ok = false
	}
}

func (e *churn) sessionTask(s *chSession) rt.Task {
	return func(simtime.Duration) bool {
		var t0 int64
		if e.traced {
			t0 = since(e.base)
		}
		work(chSessionUnits)
		s.last = since(e.base)
		s.runs++
		if s.last >= e.winStart && s.last < e.winEnd {
			e.sessUnits.Add(1)
			if e.traced {
				e.busy.Add(s.last - t0)
			}
		}
		k := s.runs
		if k == chSessionTasks {
			s.ok = e.call(&s.unreg, func() error { return e.c.Unregister(s.t) }) && s.ok
			s.t, s.task = nil, nil // keep no handle alive past the session
			return true
		}
		if k == chSessionTasks/2 {
			s.ok = e.call(&s.setw, func() error { return e.c.SetWeight(s.t, s.reweight) }) && s.ok
		}
		s.ok = e.call(&s.submits[k], func() error { return s.t.SubmitTask(s.task, rt.NoWait()) }) && s.ok
		return true
	}
}

func runChurn(cfg runConfig, rep *report) {
	env, setup := measureSetup(func() *churn { return buildChurn(cfg.seed, cfg.window) },
		func(e *churn) { e.c.Close() })
	rep.addE2E("setup_s", setup, "s", setupReps)
	untraced := env.run(rep, cfg, false)
	if !cfg.traced {
		return
	}
	env = buildChurn(cfg.seed, cfg.window)
	runtime.GC()
	traced := env.run(rep, cfg, true)
	overhead(rep, untraced, traced)
	ws := append([]float64(nil), chLongWeights...)
	for i := 0; i < 16; i++ { // the sessions typically alive beside them
		ws = append(ws, float64(1+i%chSessionWeight))
	}
	ladder(rep, ws, false)
	absent(rep, append(append([]string{"rt.spurious_wake_frac", "rt.submit.p50_ns", "rt.submit.p99_ns",
		"rt.submit.calls", "rt.queue_wait.p50_us", "rt.queue_wait.p99_us", "trace.request.self_p50_us"},
		statsAbsent...), machineAbsent...)...)
}

func (e *churn) run(rep *report, cfg runConfig, traced bool) phaseE2E {
	e.traced = traced
	e.winStart, e.winEnd = int64(warmup), int64(warmup+cfg.window)
	e.base = time.Now()
	for _, l := range e.long {
		e.attempted.Add(1)
		if err := l.t.SubmitTask(l.task); err != nil {
			e.failed.Add(1)
			l.done.Add(1) // never accepted, so never expected to finish
		}
	}
	smp := startSampler(samplePeriod, nil)
	var late []float64
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		replay(e.arrivals, e.base, func(i int) {
			if traced {
				late = append(late, float64(since(e.base)-int64(e.arrivals[i].At))/1e3)
			}
			e.start(i)
		})
	}()
	sleepUntil(e.base, warmup)
	c0, m0 := countRT(e.nodes...), e.c.Migrations()
	sleepUntil(e.base, warmup+cfg.window)
	c1, m1 := countRT(e.nodes...), e.c.Migrations()
	<-genDone
	e.stop.Store(true)
	e.c.Drain()
	memMB := smp.finish()

	var longUnits, longW []float64
	for _, l := range e.long {
		rep.check(l.done.Load() == 1, "cluster-churn: %s finished %d times, want 1", l.t.Name(), l.done.Load())
		longUnits = append(longUnits, float64(l.inWin))
		longW = append(longW, l.weight)
	}
	var lat []float64
	var reg, unreg, setw, sub []float64
	var spans []span
	for i := range e.sess {
		s := &e.sess[i]
		if s.ok && s.runs != chSessionTasks {
			rep.check(false, "cluster-churn: session %d ran %d tasks, want %d", i, s.runs, chSessionTasks)
		}
		due := int64(e.arrivals[i].At)
		if !s.ok || due < e.winStart || due >= e.winEnd {
			continue
		}
		lat = append(lat, float64(s.last-due)/1e3)
		if !traced {
			continue
		}
		d := func(at [2]int64) float64 { return float64(at[1] - at[0]) }
		reg = append(reg, d(s.reg)/1e3)
		unreg = append(unreg, d(s.unreg)/1e3)
		setw = append(setw, d(s.setw)/1e3)
		id := int64(i)
		spans = append(spans, span{id, "session", "", due, max(s.last, s.unreg[1])},
			span{id, "register", "session", s.reg[0], s.reg[1]},
			span{id, "setweight", "session", s.setw[0], s.setw[1]},
			span{id, "unregister", "session", s.unreg[0], s.unreg[1]})
		for _, at := range s.submits {
			sub = append(sub, d(at))
			spans = append(spans, span{id, "submit", "session", at[0], at[1]})
		}
	}
	sessUnits := e.sessUnits.Load()
	err := e.c.CheckInvariants()
	rep.check(err == nil, "cluster-churn: cluster invariants: %v", err)
	for i, r := range e.nodes {
		rep.check(r.TaskPanics() == 0, "cluster-churn: machine %d: %d task panics", i, r.TaskPanics())
	}
	e.c.Close()
	rep.ops(e.attempted.Load(), e.failed.Load())

	var longDone float64
	for _, u := range longUnits {
		longDone += u
	}
	rate := (longDone*chLongUnits + float64(sessUnits)*chSessionUnits) / cfg.window.Seconds()
	out := phaseE2E{units: rate, latP50: quantile(lat, 0.5)}
	if !traced {
		rep.addE2E("units_per_s", rate, "1/s", 0)
		rep.addE2E("share_ratio_min", shareRatioMin(classSums(longUnits, longW)), "ratio", 0)
		latencyE2E(rep, lat)
		rep.addE2E("mem_peak_mb", memMB, "MB", 0)
		rep.note("cluster-churn long-lived share per tenant (weights %v): %.3f", chLongWeights, ratios(longUnits, longW))
		return out
	}
	rep.addLayer("gen.late_p99_us", quantile(late, 0.99), "us", len(late))
	rep.addLayer("rt.outside_task_frac", 1-float64(e.busy.Load())/(float64(len(e.nodes))*float64(cfg.window)), "frac", 0)
	rep.addLayer("gen.arrivals", float64(len(late)), "count", 0)
	c1.sub(c0).addPer1k(rep)
	rep.addLayer("cluster.register.p99_us", quantile(reg, 0.99), "us", len(reg))
	rep.addLayer("cluster.unregister.p99_us", quantile(unreg, 0.99), "us", len(unreg))
	rep.addLayer("cluster.setweight.p99_us", quantile(setw, 0.99), "us", len(setw))
	rep.addLayer("cluster.submit.p50_ns", quantile(sub, 0.5), "ns", len(sub))
	rep.addLayer("cluster.migrations", float64(m1-m0), "count", 0)
	reportSpans(rep, cfg, "session", spans)
	return out
}
