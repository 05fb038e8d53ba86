package experiments

import (
	"fmt"
	"math"
	"time"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// The scheduling-overhead results: Table 1 (lmbench) and Figure 7
// (context-switch cost vs. number of processes). Where lmbench measures
// kernel context switches, these measure what the schedulers control, the
// per-switch bookkeeping of charge + pick, in Go wall-clock nanoseconds,
// with an optional working-set touch for lmbench's cache footprint
// (DESIGN.md §2).

// SwitchCost measures the mean cost of one scheduler round trip — charge the
// outgoing thread, pick the next, touch its working set — with nproc
// runnable threads of wsKB KiB each, mimicking lmbench's
// "lat_ctx -s <size> <nproc>".
func SwitchCost(s sched.Scheduler, nproc, wsKB, iters int) time.Duration {
	nproc = max(nproc, 2)
	now := simtime.Time(0)
	sets := make([][]byte, nproc)
	for i := range sets {
		mustOK(s.Add(runnable(i+1), now))
		sets[i] = make([]byte, wsKB*1024)
	}
	cur := s.Pick(0, now)
	cur.CPU = 0
	// The charge per hop rotates fair-queueing tags and depletes
	// time-sharing counters so that both schedulers actually rotate
	// through the process ring, as lmbench's token-passing does.
	const hop = 10 * simtime.Millisecond
	start := time.Now()
	for i := 0; i < iters; i++ {
		now = now.Add(hop)
		s.Charge(cur, hop, now)
		cur.LastCPU = 0
		cur.CPU = sched.NoCPU
		next := s.Pick(0, now)
		if next == nil {
			panic("experiments: scheduler went idle mid-benchmark")
		}
		next.CPU = 0
		ws := sets[next.ID-1]
		for j := 0; j < len(ws); j += 64 {
			ws[j]++
		}
		cur = next
	}
	return time.Since(start) / time.Duration(iters)
}

// Table1 regenerates the paper's Table 1 with iters hops per measurement
// (iters <= 0 means DefaultIters): one row per lmbench test with its cost
// in ns/op under time sharing and SFS. The rows that do not involve the
// scheduler read "=", as they are equal under both in the paper.
func Table1(iters int) Grid {
	iters = orDefault(iters, DefaultIters)
	const indep = "scheduler-independent (equal by construction)"
	g := Grid{Title: fmt.Sprintf("Table 1: scheduling overheads (ns/op, %d iters)", iters), Headers: []string{"Test"},
		Labels: []string{"syscall overhead", "exec()", "fork() (sched add+remove)"}, Notes: []string{indep, indep, ""}}
	contexts := []struct{ nproc, wsKB int }{{2, 0}, {8, 16}, {16, 64}}
	for _, c := range contexts {
		g.Labels = append(g.Labels, fmt.Sprintf("Context switch (%d proc/ %dKB)", c.nproc, c.wsKB))
		g.Notes = append(g.Notes, "")
	}
	cost := func(kind Kind) []float64 {
		mk := func() sched.Scheduler { return MustScheduler(kind, 1, core200ms) }
		// fork(): thread creation visible to the scheduler = add + remove.
		ns := []float64{math.NaN(), math.NaN(), float64(forkCost(mk(), iters))}
		for _, c := range contexts {
			ns = append(ns, float64(SwitchCost(mk(), c.nproc, c.wsKB, iters)))
		}
		return ns
	}
	g.add("Time sharing", "%.0fns", cost(Timeshare))
	g.add("SFS", "%.0fns", cost(SFS))
	return g
}

const core200ms = 200 * simtime.Millisecond

// forkCost measures the scheduler-visible part of process creation and
// teardown with a background population of 8 threads.
func forkCost(s sched.Scheduler, iters int) time.Duration {
	now := simtime.Time(0)
	for i := 0; i < 8; i++ {
		mustOK(s.Add(runnable(i+1), now))
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		t := runnable(1000 + i)
		mustOK(s.Add(t, now))
		t.State = sched.Exited
		mustOK(s.Remove(t, now))
	}
	return time.Since(start) / time.Duration(iters)
}

// runnable returns a fresh weight-1 runnable thread.
func runnable(id int) *sched.Thread {
	return &sched.Thread{ID: id, Weight: 1, Phi: 1, CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

// Fig7Params configures the switch-cost growth experiment (Figure 7):
// 0 KB processes, process counts from 2 to 50.
type Fig7Params struct {
	Procs []int
	Iters int
}

// Fig7Defaults returns the paper's Figure 7 sweep.
func Fig7Defaults() Fig7Params {
	return Fig7Params{
		Procs: []int{2, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50},
		Iters: DefaultIters,
	}
}

// Fig7 runs the switch-cost sweep: ns per switch for each process count,
// under time sharing and SFS. Iters <= 0 means DefaultIters, as for Table1.
func Fig7(p Fig7Params) Grid {
	p.Iters = orDefault(p.Iters, DefaultIters)
	g := Grid{Title: "Figure 7: context switch cost vs. number of 0KB processes (ns/switch)",
		Headers: []string{"processes"}, Labels: labels(p.Procs)}
	cost := func(kind Kind) []float64 {
		var ns []float64
		for _, n := range p.Procs {
			ns = append(ns, float64(SwitchCost(MustScheduler(kind, 1, core200ms), n, 0, p.Iters).Nanoseconds()))
		}
		return ns
	}
	g.add("timeshare", "%.0f", cost(Timeshare))
	g.add("SFS", "%.0f", cost(SFS))
	return g
}
