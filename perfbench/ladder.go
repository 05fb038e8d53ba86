package main

import (
	"errors"
	"fmt"
	"time"

	"sfsched/internal/cluster"
	"sfsched/internal/core"
	"sfsched/internal/engine"
	"sfsched/internal/rt"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// The layer ladder replays one workload's tenant set and weights,
// single-threaded on a FakeClock, through each layer in turn and times one
// decision cycle at each. Every layer wraps the one before it, so a layer's
// self cost is the difference from the layer below, all from the same run.
const (
	ladderQuantum = simtime.Millisecond
	ladderBatches = 21
	ladderBatch   = 10 * time.Millisecond // target length of one timed batch
	ladderCalls   = 2000                  // timed cluster calls per kind
)

// timeCycles returns each cycle's median ns per call over ladderBatches
// timed batches, each sized from a warm-up to last about ladderBatch. The
// batches of different cycles alternate, so drift in host speed during the
// run shifts every layer alike and cancels out of the differences.
func timeCycles(cycles ...func()) []float64 {
	const warm = 2000
	sizes := make([]int, len(cycles))
	for k, cycle := range cycles {
		t0 := time.Now()
		for i := 0; i < warm; i++ {
			cycle()
		}
		per := float64(time.Since(t0).Nanoseconds()) / warm
		sizes[k] = max(100, int(float64(ladderBatch.Nanoseconds())/max(per, 1)))
	}
	ns := make([][]float64, len(cycles))
	for b := 0; b < ladderBatches; b++ {
		for k, cycle := range cycles {
			t0 := time.Now()
			for i := 0; i < sizes[k]; i++ {
				cycle()
			}
			ns[k] = append(ns[k], float64(time.Since(t0).Nanoseconds())/float64(sizes[k]))
		}
	}
	out := make([]float64, len(cycles))
	for k := range ns {
		out[k] = median(ns[k])
	}
	return out
}

func threads(weights []float64) []*sched.Thread {
	ts := make([]*sched.Thread, len(weights))
	for i, w := range weights {
		ts[i] = &sched.Thread{ID: i + 1, Weight: w, Phi: w, CPU: sched.NoCPU, LastCPU: sched.NoCPU}
	}
	return ts
}

// coreCycle is the policy layer: charge the running thread, pick its
// successor, as the scheduler sees one processor.
func coreCycle(weights []float64) func() {
	s := core.New(1, core.WithQuantum(ladderQuantum))
	now := simtime.Time(0)
	for _, t := range threads(weights) {
		t.State = sched.Runnable
		if err := s.Add(t, now); err != nil {
			panic(err) // valid weights, fresh threads
		}
	}
	running := s.Pick(0, now)
	running.CPU = 0
	return func() {
		now = now.Add(ladderQuantum)
		running.LastCPU = 0
		running.CPU = sched.NoCPU
		s.Charge(running, ladderQuantum, now)
		running = s.Pick(0, now)
		running.CPU = 0
	}
}

func newEngine(weights []float64) (*engine.Engine, []*sched.Thread) {
	eng := engine.New(core.New(1, core.WithQuantum(ladderQuantum)))
	ts := threads(weights)
	for _, t := range ts {
		if err := eng.Admit(t, 0); err != nil {
			panic(err)
		}
	}
	return eng, ts
}

// engineCycle is the shared decision core: pick → begin → settle.
func engineCycle(weights []float64) func() {
	eng, _ := newEngine(weights)
	var sl engine.Slice
	now := simtime.Time(0)
	return func() {
		t, err := eng.Pick(0, now)
		if err != nil {
			panic(err)
		}
		if err := eng.Begin(&sl, t, 0, now, now); err != nil {
			panic(err)
		}
		now = now.Add(sl.Quantum)
		eng.Settle(&sl, now, engine.NoCap)
		t.LastCPU = 0
		t.CPU = sched.NoCPU
	}
}

// engineAdmitDepart is one wakeup round trip: a thread blocks and is
// re-admitted through the batched wakeup path with its readjustment pass.
func engineAdmitDepart(weights []float64) func() {
	eng, ts := newEngine(weights)
	one := make([]*sched.Thread, 1)
	i, now := 0, simtime.Time(0)
	return func() {
		t := ts[i%len(ts)]
		i++
		now = now.Add(simtime.Microsecond)
		if err := eng.Depart(t, sched.Blocked, now); err != nil {
			panic(err)
		}
		one[0] = t
		if err := eng.AdmitBatch(one, now); err != nil {
			panic(err)
		}
	}
}

// submitter is the tenant handle a cycle resubmits through.
type submitter interface {
	SubmitTask(rt.Task, ...rt.SubmitOption) error
}

// manualCycle drives one Manual-mode worker: dispatch, resubmit to the
// dispatched tenant so it stays runnable, advance the clock, complete.
func manualCycle(r *rt.Runtime, clock *rt.FakeClock, byName map[string]submitter) func() {
	task := rt.Once(func() {})
	return func() {
		d := r.Dispatch(0)
		if err := byName[d.Tenant().Name()].SubmitTask(task); err != nil {
			panic(err)
		}
		clock.Advance(ladderQuantum)
		d.Complete(true)
	}
}

// shardCycle is one Manual-mode shard with no goroutines.
func shardCycle(weights []float64) (func(), func()) {
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: 1, Quantum: ladderQuantum, Clock: clock, QueueCap: 4, Manual: true})
	byName := map[string]submitter{}
	for i, w := range weights {
		tn, err := r.Register(fmt.Sprintf("t%d", i), w)
		if err != nil {
			panic(err)
		}
		byName[tn.Name()] = tn
		if err := tn.SubmitTask(rt.Once(func() {})); err != nil {
			panic(err)
		}
	}
	return manualCycle(r, clock, byName), r.Close
}

// clusterRig is a Manual single-machine cluster carrying the tenant set.
type clusterRig struct {
	c       *cluster.Cluster
	clock   *rt.FakeClock
	tenants []*cluster.Tenant
	byName  map[string]submitter
}

func newClusterRig(weights []float64) *clusterRig {
	g := &clusterRig{clock: rt.NewFakeClock(), byName: map[string]submitter{}}
	c, err := cluster.New(cluster.Config{Machines: 1, Workers: 1, Quantum: ladderQuantum,
		Clock: g.clock, QueueCap: 4, Manual: true, Seed: 1})
	if err != nil {
		panic(err)
	}
	g.c = c
	for i, w := range weights {
		t, err := c.Register(fmt.Sprintf("t%d", i), w)
		if err != nil {
			panic(err)
		}
		g.tenants = append(g.tenants, t)
		g.byName[t.Name()] = t
		if err := t.SubmitTask(rt.Once(func() {})); err != nil {
			panic(err)
		}
	}
	return g
}

// ladder runs every layer over the tenant set and reports each cycle and
// self cost. With clusterCalls it also times the cluster's lifecycle calls
// and submit route against the same tenant set, for workloads that do not
// run the cluster live.
func ladder(rep *report, weights []float64, clusterCalls bool) {
	n := len(weights)
	shard, closeShard := shardCycle(weights)
	defer closeShard()
	g := newClusterRig(weights)
	defer g.c.Close()
	node := g.c.Node(0).(*rt.Runtime)
	ns := timeCycles(coreCycle(weights), engineCycle(weights), engineAdmitDepart(weights),
		shard, manualCycle(node, g.clock, g.byName))
	coreNs, engNs, admitNs, shardNs, clusterNs := ns[0], ns[1], ns[2], ns[3], ns[4]

	rep.addLayer("core.pick_charge.ns", coreNs, "ns", ladderBatches)
	rep.addLayer("engine.cycle.ns", engNs, "ns", ladderBatches)
	rep.addLayer("engine.admit_depart.ns", admitNs, "ns", ladderBatches)
	rep.addLayer("rt.shard.cycle.ns", shardNs, "ns", ladderBatches)
	rep.addLayer("cluster.route.cycle.ns", clusterNs, "ns", ladderBatches)
	rep.addLayer("engine.self.ns", engNs-coreNs, "ns", 0)
	rep.addLayer("rt.shard.self.ns", shardNs-engNs, "ns", 0)
	rep.addLayer("cluster.route.self.ns", clusterNs-shardNs, "ns", 0)
	rep.note("layer ladder over %d tenants (ns per cycle, self = minus the layer below): core %.0f | engine %.0f (self %.0f) | rt.shard %.0f (self %.0f) | cluster.route %.0f (self %.0f); engine admit+depart %.0f",
		n, coreNs, engNs, engNs-coreNs, shardNs, shardNs-engNs, clusterNs, clusterNs-shardNs, admitNs)
	if !clusterCalls {
		return
	}

	timed := func(f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0).Nanoseconds())
	}
	var reg, unreg, setw, sub []float64
	var errs [4]error
	task := rt.Once(func() {})
	for i := 0; i < ladderCalls; i++ {
		var t *cluster.Tenant
		reg = append(reg, timed(func() { t, errs[0] = g.c.Register("probe", 2) })/1e3)
		unreg = append(unreg, timed(func() { errs[1] = g.c.Unregister(t) })/1e3)
		target := g.tenants[i%n]
		setw = append(setw, timed(func() { errs[2] = g.c.SetWeight(target, weights[i%n]+float64(i%2)) })/1e3)
		d := node.Dispatch(0)
		ct := g.byName[d.Tenant().Name()]
		sub = append(sub, timed(func() { errs[3] = ct.SubmitTask(task) }))
		g.clock.Advance(ladderQuantum)
		d.Complete(true)
		if err := errors.Join(errs[:]...); err != nil {
			rep.check(false, "ladder: cluster call failed: %v", err)
			break
		}
	}
	rep.addLayer("cluster.register.p99_us", quantile(reg, 0.99), "us", len(reg))
	rep.addLayer("cluster.unregister.p99_us", quantile(unreg, 0.99), "us", len(unreg))
	rep.addLayer("cluster.setweight.p99_us", quantile(setw, 0.99), "us", len(setw))
	rep.addLayer("cluster.submit.p50_ns", quantile(sub, 0.5), "ns", len(sub))
}
