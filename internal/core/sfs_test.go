package core

import (
	"errors"
	"math"
	"testing"

	"sfsched/internal/fixedpoint"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/xrand"
)

func mkThread(id int, w float64) *sched.Thread {
	return &sched.Thread{ID: id, Name: "", Weight: w, Phi: w,
		CPU: sched.NoCPU, LastCPU: sched.NoCPU, State: sched.Runnable}
}

// runQuanta drives the scheduler directly: p synchronized CPUs, fixed
// quanta, all threads compute-bound. Returns total quanta each thread ran.
func runQuanta(t *testing.T, s sched.Scheduler, p int, quanta int, q simtime.Duration) {
	t.Helper()
	now := simtime.Time(0)
	for i := 0; i < quanta; i++ {
		var running []*sched.Thread
		for c := 0; c < p; c++ {
			th := s.Pick(c, now)
			if th == nil {
				break
			}
			th.CPU = c
			running = append(running, th)
		}
		now = now.Add(q)
		for _, th := range running {
			s.Charge(th, q, now)
			th.LastCPU = th.CPU
			th.CPU = sched.NoCPU
		}
	}
}

func TestAddAssignsVirtualTimeStartTag(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if a.Start != 0 {
		t.Fatalf("first thread start tag %g", a.Start)
	}
	s.Charge(a, 200*simtime.Millisecond, 0)
	// a's tag advanced to 0.2; v is still min start = 0.2 now (only a).
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	if b.Start != 0.2 {
		t.Fatalf("new arrival start tag %g, want v=0.2", b.Start)
	}
}

func TestChargeAdvancesTagsByPhi(t *testing.T) {
	s := New(2)
	a := mkThread(1, 2)
	b := mkThread(2, 2)
	c := mkThread(3, 2)
	for _, th := range []*sched.Thread{a, b, c} {
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Charge(a, simtime.Second, 0)
	if a.Finish != 0.5 {
		t.Fatalf("F = S + q/φ: got %g, want 0.5", a.Finish)
	}
	if a.Start != a.Finish {
		t.Fatal("start tag must advance to finish tag")
	}
	if a.Service != simtime.Second {
		t.Fatalf("service %v", a.Service)
	}
}

func TestSurplusInvariants(t *testing.T) {
	s := New(2)
	threads := []*sched.Thread{mkThread(1, 1), mkThread(2, 10), mkThread(3, 3), mkThread(4, 1)}
	for _, th := range threads {
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	runQuanta(t, s, 2, 200, 10*simtime.Millisecond)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPickMinSurplus(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	c := mkThread(3, 1)
	for _, th := range []*sched.Thread{a, b, c} {
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Give a and b service; c stays at v with surplus 0.
	s.Charge(a, 100*simtime.Millisecond, 0)
	s.Charge(b, 50*simtime.Millisecond, 0)
	got := s.Pick(0, 0)
	if got != c {
		t.Fatalf("Pick = %v, want thread 3 (zero surplus)", got)
	}
}

func TestPickSkipsRunningThreads(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	for _, th := range []*sched.Thread{a, b} {
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	first := s.Pick(0, 0)
	first.CPU = 0
	second := s.Pick(1, 0)
	if second == first {
		t.Fatal("picked a running thread")
	}
	second.CPU = 1
	if s.Pick(0, 0) != nil {
		t.Fatal("picked with all threads running")
	}
}

func TestReadjustmentOnAdd(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	b := mkThread(2, 10)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	// 1:10 on p=2 readjusts to 1:1.
	if a.Phi != 1 || b.Phi != 1 {
		t.Fatalf("φ = %g, %g; want 1, 1", a.Phi, b.Phi)
	}
	c := mkThread(3, 1)
	if err := s.Add(c, 0); err != nil {
		t.Fatal(err)
	}
	if a.Phi != 1 || b.Phi != 2 || c.Phi != 1 {
		t.Fatalf("φ = %g, %g, %g; want 1, 2, 1", a.Phi, b.Phi, c.Phi)
	}
}

func TestProportionalAllocationFeasible(t *testing.T) {
	// Weights 4:2:1:1 on p=2 are feasible (max share 4/8 = 1/2); service
	// must track weights closely over many small quanta.
	s := New(2, WithQuantum(10*simtime.Millisecond))
	weights := []float64{4, 2, 1, 1}
	var threads []*sched.Thread
	for i, w := range weights {
		th := mkThread(i+1, w)
		threads = append(threads, th)
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	runQuanta(t, s, 2, 4000, 10*simtime.Millisecond)
	base := threads[3].Service.Seconds() / weights[3]
	for i, th := range threads {
		norm := th.Service.Seconds() / weights[i]
		if math.Abs(norm-base) > 0.05*base {
			t.Fatalf("thread %d normalized service %g vs %g (>5%% off)", i+1, norm, base)
		}
	}
}

func TestInfeasibleWeightGetsOneCPU(t *testing.T) {
	// Weight 100 vs five weight-1 threads on p=2: the heavy thread is
	// entitled to exactly one CPU; the rest share the other.
	s := New(2, WithQuantum(10*simtime.Millisecond))
	heavy := mkThread(1, 100)
	if err := s.Add(heavy, 0); err != nil {
		t.Fatal(err)
	}
	var light []*sched.Thread
	for i := 0; i < 5; i++ {
		th := mkThread(i+2, 1)
		light = append(light, th)
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	const quanta = 6000
	runQuanta(t, s, 2, quanta, 10*simtime.Millisecond)
	// Wall-clock elapsed: each runQuanta iteration advances one quantum.
	elapsed := (10 * simtime.Millisecond).Seconds() * quanta
	heavyShare := heavy.Service.Seconds() / elapsed
	if math.Abs(heavyShare-1.0) > 0.05 {
		t.Fatalf("heavy thread got %.3f CPUs, want ~1.0", heavyShare)
	}
	for _, th := range light {
		share := th.Service.Seconds() / elapsed
		if math.Abs(share-0.2) > 0.05 {
			t.Fatalf("light thread got %.3f CPUs, want ~0.2", share)
		}
	}
}

func TestWokenThreadDoesNotBankCredit(t *testing.T) {
	s := New(1)
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	// b runs once then blocks for a long time while a computes.
	s.Charge(b, 100*simtime.Millisecond, 0)
	b.State = sched.Blocked
	if err := s.Remove(b, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s.Charge(a, 100*simtime.Millisecond, 0)
	}
	// a's tag is now 10.0; on wakeup b must resume at v (= a's tag), not
	// at its old finish tag of 0.1 — otherwise it would starve a.
	b.State = sched.Runnable
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	if b.Start != s.VirtualTime() || b.Start < 9.9 {
		t.Fatalf("woken start tag %g, want v=%g", b.Start, s.VirtualTime())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestVirtualTimeIdleRule(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	s.Charge(a, simtime.Second, 0)
	a.State = sched.Blocked
	if err := s.Remove(a, 0); err != nil {
		t.Fatal(err)
	}
	// System idle: v holds the finish tag of the last thread that ran.
	if s.VirtualTime() != 1.0 {
		t.Fatalf("idle v = %g, want 1.0", s.VirtualTime())
	}
	b := mkThread(2, 1)
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	if b.Start != 1.0 {
		t.Fatalf("arrival during idle got start %g, want 1.0", b.Start)
	}
}

func TestSFSReducesToSFQOnUniprocessor(t *testing.T) {
	// §2.3: "surplus fair scheduling reduces to start-time fair queueing
	// in a uniprocessor system." Drive both with an identical scripted
	// workload and compare the full pick trace.
	mkSet := func() []*sched.Thread {
		return []*sched.Thread{mkThread(1, 1), mkThread(2, 5), mkThread(3, 2), mkThread(4, 7)}
	}
	trace := func(s sched.Scheduler, threads []*sched.Thread) []int {
		now := simtime.Time(0)
		for _, th := range threads {
			if err := s.Add(th, now); err != nil {
				t.Fatal(err)
			}
		}
		var ids []int
		r := xrand.New(77)
		for i := 0; i < 2000; i++ {
			th := s.Pick(0, now)
			if th == nil {
				t.Fatal("idle with runnable threads")
			}
			ids = append(ids, th.ID)
			th.CPU = 0
			q := simtime.Duration(1+r.Intn(200)) * simtime.Millisecond
			now = now.Add(q)
			s.Charge(th, q, now)
			th.CPU = sched.NoCPU
		}
		return ids
	}
	sfsTrace := trace(New(1), mkSet())
	sfqTrace := trace(sfq.New(1), mkSet())
	for i := range sfsTrace {
		if sfsTrace[i] != sfqTrace[i] {
			t.Fatalf("traces diverge at decision %d: SFS=%d SFQ=%d", i, sfsTrace[i], sfqTrace[i])
		}
	}
}

func TestSetWeightTakesEffect(t *testing.T) {
	s := New(2, WithQuantum(10*simtime.Millisecond))
	threads := []*sched.Thread{mkThread(1, 1), mkThread(2, 1), mkThread(3, 1), mkThread(4, 1)}
	for _, th := range threads {
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	runQuanta(t, s, 2, 400, 10*simtime.Millisecond)
	before := threads[0].Service
	if err := s.SetWeight(threads[0], 3, 0); err != nil {
		t.Fatal(err)
	}
	runQuanta(t, s, 2, 2000, 10*simtime.Millisecond)
	gained := (threads[0].Service - before).Seconds()
	// After the change, thread 1 holds 3/6 = half the total weight =
	// exactly one CPU for the remaining 2000 quanta × 10 ms = 20 s.
	if math.Abs(gained-20.0) > 1.0 {
		t.Fatalf("reweighted thread gained %.2fs, want ~20s", gained)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetWeightWhileBlocked(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	if err := s.SetWeight(a, 5, 0); err != nil {
		t.Fatal(err)
	}
	if a.Weight != 5 || a.Phi != 5 {
		t.Fatalf("blocked weight change lost: w=%g φ=%g", a.Weight, a.Phi)
	}
}

func TestErrors(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(a, 0); !errors.Is(err, sched.ErrAlreadyManaged) {
		t.Fatalf("double add: %v", err)
	}
	b := mkThread(2, 1)
	if err := s.Remove(b, 0); !errors.Is(err, sched.ErrNotManaged) {
		t.Fatalf("remove unmanaged: %v", err)
	}
	bad := mkThread(3, -1)
	if err := s.Add(bad, 0); !errors.Is(err, sched.ErrBadWeight) {
		t.Fatalf("bad weight add: %v", err)
	}
	if err := s.SetWeight(a, 0, 0); !errors.Is(err, sched.ErrBadWeight) {
		t.Fatalf("bad weight set: %v", err)
	}
	if err := s.SetWeight(a, math.NaN(), 0); !errors.Is(err, sched.ErrBadWeight) {
		t.Fatalf("NaN weight set: %v", err)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	s.Charge(a, -1, 0)
}

func TestNewPanicsOnBadCPUCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestTimesliceAndName(t *testing.T) {
	s := New(2, WithQuantum(50*simtime.Millisecond))
	if got := s.Timeslice(mkThread(1, 1), 0); got != 50*simtime.Millisecond {
		t.Fatalf("Timeslice = %v", got)
	}
	if s.Name() != "SFS" {
		t.Fatalf("Name = %q", s.Name())
	}
	if New(2, WithHeuristic(20)).Name() != "SFS(k=20)" {
		t.Fatal("heuristic name wrong")
	}
	if s.NumCPU() != 2 {
		t.Fatal("NumCPU wrong")
	}
	if s.Quantum() != 50*simtime.Millisecond {
		t.Fatal("Quantum wrong")
	}
}

func TestRandomOpsKeepInvariants(t *testing.T) {
	// Property test: arbitrary interleavings of add/remove/charge/pick/
	// setweight must preserve the §2.3 invariants after every operation.
	r := xrand.New(2024)
	for _, p := range []int{1, 2, 4, 8} {
		s := New(p, WithQuantum(20*simtime.Millisecond))
		now := simtime.Time(0)
		var pool []*sched.Thread
		id := 0
		for step := 0; step < 3000; step++ {
			switch op := r.Intn(10); {
			case op < 3: // add
				id++
				th := mkThread(id, float64(1+r.Intn(50)))
				pool = append(pool, th)
				if err := s.Add(th, now); err != nil {
					t.Fatal(err)
				}
			case op < 4 && len(pool) > 0: // remove (block)
				i := r.Intn(len(pool))
				th := pool[i]
				if th.Running() {
					break
				}
				th.State = sched.Blocked
				if err := s.Remove(th, now); err != nil {
					t.Fatal(err)
				}
				pool = append(pool[:i], pool[i+1:]...)
			case op < 5 && len(pool) > 0: // setweight
				th := pool[r.Intn(len(pool))]
				if err := s.SetWeight(th, float64(1+r.Intn(50)), now); err != nil {
					t.Fatal(err)
				}
			default: // pick + charge
				th := s.Pick(r.Intn(p), now)
				if th == nil {
					break
				}
				th.CPU = 0
				q := simtime.Duration(1+r.Intn(20)) * simtime.Millisecond
				now = now.Add(q)
				s.Charge(th, q, now)
				th.CPU = sched.NoCPU
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("p=%d step %d: %v", p, step, err)
			}
		}
	}
}

func TestHeuristicMatchesExactWithLargeK(t *testing.T) {
	// With k >= n the heuristic examines every thread and must agree with
	// the exact scheduler decision-for-decision.
	mkSet := func() []*sched.Thread {
		r := xrand.New(5)
		var out []*sched.Thread
		for i := 0; i < 30; i++ {
			out = append(out, mkThread(i+1, float64(1+r.Intn(20))))
		}
		return out
	}
	trace := func(s sched.Scheduler) []int {
		threads := mkSet()
		now := simtime.Time(0)
		for _, th := range threads {
			if err := s.Add(th, now); err != nil {
				t.Fatal(err)
			}
		}
		var ids []int
		for i := 0; i < 1500; i++ {
			th := s.Pick(0, now)
			th.CPU = 0
			now = now.Add(10 * simtime.Millisecond)
			s.Charge(th, 10*simtime.Millisecond, now)
			th.CPU = sched.NoCPU
			ids = append(ids, th.ID)
		}
		return ids
	}
	exact := trace(New(4))
	heur := trace(New(4, WithHeuristic(100), WithUpdatePeriod(1)))
	for i := range exact {
		if exact[i] != heur[i] {
			t.Fatalf("decision %d differs: exact=%d heuristic=%d", i, exact[i], heur[i])
		}
	}
}

func TestHeuristicStaysWorkConserving(t *testing.T) {
	s := New(2, WithHeuristic(1))
	var threads []*sched.Thread
	for i := 0; i < 10; i++ {
		th := mkThread(i+1, 1)
		threads = append(threads, th)
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Occupy the most attractive candidates.
	threads[0].CPU = 0
	if got := s.Pick(1, 0); got == nil {
		t.Fatal("heuristic went idle with 9 runnable threads")
	}
}

func TestFixedPointTracksFloat(t *testing.T) {
	// The fixed-point scheduler with 4 digits must deliver allocations
	// within a fraction of a percent of the float64 scheduler.
	run := func(s sched.Scheduler) []simtime.Duration {
		threads := []*sched.Thread{mkThread(1, 7), mkThread(2, 3), mkThread(3, 1), mkThread(4, 1)}
		for _, th := range threads {
			if err := s.Add(th, 0); err != nil {
				t.Fatal(err)
			}
		}
		runQuanta(t, s, 2, 4000, 10*simtime.Millisecond)
		out := make([]simtime.Duration, len(threads))
		for i, th := range threads {
			out[i] = th.Service
		}
		return out
	}
	flo := run(New(2, WithQuantum(10*simtime.Millisecond)))
	fix := run(New(2, WithQuantum(10*simtime.Millisecond), WithFixedPoint(4)))
	for i := range flo {
		rel := math.Abs(flo[i].Seconds()-fix[i].Seconds()) / flo[i].Seconds()
		if rel > 0.01 {
			t.Fatalf("thread %d: float %v vs fixed %v (%.2f%% apart)", i+1, flo[i], fix[i], rel*100)
		}
	}
}

func TestFixedPointRebase(t *testing.T) {
	// Force rebases with a tiny threshold; allocations must be unaffected
	// and the rebase counter must advance.
	s := New(2, WithQuantum(10*simtime.Millisecond), WithFixedPoint(4),
		WithRebaseThreshold(fixedpoint.Value(10_000_000))) // 1000.0 at scale 4
	threads := []*sched.Thread{mkThread(1, 3), mkThread(2, 1), mkThread(3, 1)}
	for _, th := range threads {
		if err := s.Add(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	runQuanta(t, s, 2, 8000, 10*simtime.Millisecond)
	if s.Stats().Rebases == 0 {
		t.Fatal("rebase never triggered")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// 3:1:1 on p=2: thread 1 requests 3/5 of 2 CPUs = 1.2 CPUs, which is
	// infeasible; it is capped to one CPU and threads 2,3 share the other.
	elapsed := (10 * simtime.Millisecond).Seconds() * 8000
	if share := threads[0].Service.Seconds() / elapsed; math.Abs(share-1.0) > 0.05 {
		t.Fatalf("heavy share %.3f, want ~1.0", share)
	}
}

func TestAffinityPrefersLastCPU(t *testing.T) {
	s := New(2, WithAffinity(1.0))
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	// Both have surplus 0; b last ran on CPU 1, a on CPU 0.
	a.LastCPU = 0
	b.LastCPU = 1
	if got := s.Pick(1, 0); got != b {
		t.Fatalf("affinity pick on CPU 1 = %v, want thread 2", got)
	}
	if got := s.Pick(0, 0); got != a {
		t.Fatalf("affinity pick on CPU 0 = %v, want thread 1", got)
	}
}

func TestAffinityRespectsMargin(t *testing.T) {
	s := New(2, WithAffinity(0.01))
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	// Give b a big surplus; affinity must not override fairness beyond
	// the margin.
	s.Charge(b, simtime.Second, 0)
	b.LastCPU = 1
	a.LastCPU = 0
	if got := s.Pick(1, 0); got != a {
		t.Fatalf("margin violated: picked %v", got)
	}
}

func TestStatsCounters(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	b := mkThread(2, 10)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	runQuanta(t, s, 2, 10, 10*simtime.Millisecond)
	st := s.Stats()
	if st.Decisions == 0 {
		t.Fatal("no decisions counted")
	}
	if st.Readjustments == 0 {
		t.Fatal("1:10 on p=2 must have readjusted")
	}
}

func TestWithoutReadjustment(t *testing.T) {
	s := New(2, WithoutReadjustment())
	a := mkThread(1, 1)
	b := mkThread(2, 10)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	if b.Phi != 10 {
		t.Fatalf("φ modified despite WithoutReadjustment: %g", b.Phi)
	}
}

func TestThreadsSnapshot(t *testing.T) {
	s := New(2)
	for i := 0; i < 3; i++ {
		if err := s.Add(mkThread(i+1, 1), 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Threads()); got != 3 {
		t.Fatalf("Threads len %d", got)
	}
	if s.Runnable() != 3 {
		t.Fatalf("Runnable %d", s.Runnable())
	}
}

func TestExactMinSurplus(t *testing.T) {
	s := New(2)
	if th, _ := s.ExactMinSurplus(); th != nil {
		t.Fatal("empty scheduler returned a thread")
	}
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	s.Charge(a, 100*simtime.Millisecond, 0)
	th, surplus := s.ExactMinSurplus()
	if th != b || surplus != 0 {
		t.Fatalf("ExactMinSurplus = %v/%g, want thread 2 at 0", th, surplus)
	}
	// Running threads are excluded (it feeds Pick comparisons).
	b.CPU = 0
	th, _ = s.ExactMinSurplus()
	if th != a {
		t.Fatalf("ExactMinSurplus with b running = %v, want thread 1", th)
	}
}

func TestLessOrdersBySurplus(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	s.Charge(a, 100*simtime.Millisecond, 0)
	if !s.Less(b, a) || s.Less(a, b) {
		t.Fatal("Less must order by fresh surplus")
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	s := New(2)
	a := mkThread(1, 1)
	b := mkThread(2, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a start tag behind the scheduler's back: the checker must
	// notice either a sort violation or a negative surplus.
	a.Start = -5
	if err := s.CheckInvariants(); err == nil {
		t.Fatal("corruption went undetected")
	}
}

func TestFixedPointWraparoundLongRun(t *testing.T) {
	// A long-running fixed-point scheduler must survive many rebases with
	// proportions intact (3:1, feasible on p=1... use p=1, SFQ-reduction).
	s := New(1, WithQuantum(10*simtime.Millisecond), WithFixedPoint(4),
		WithRebaseThreshold(fixedpoint.Value(500_000))) // rebase every ~50 tag units
	a := mkThread(1, 3)
	b := mkThread(2, 1)
	if err := s.Add(a, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b, 0); err != nil {
		t.Fatal(err)
	}
	runQuanta(t, s, 1, 20000, 10*simtime.Millisecond)
	if s.Stats().Rebases < 3 {
		t.Fatalf("only %d rebases", s.Stats().Rebases)
	}
	ratio := a.Service.Seconds() / b.Service.Seconds()
	if math.Abs(ratio-3) > 0.05 {
		t.Fatalf("ratio %.4f after wraparounds, want 3", ratio)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWithQuantumNonPositiveKeepsDefault: a zero or negative quantum would
// grant non-positive timeslices, so WithQuantum ignores it.
func TestWithQuantumNonPositiveKeepsDefault(t *testing.T) {
	for _, q := range []simtime.Duration{0, -5 * simtime.Millisecond} {
		if got := New(2, WithQuantum(q)).Quantum(); got != DefaultQuantum {
			t.Fatalf("WithQuantum(%v): quantum %v, want %v", q, got, DefaultQuantum)
		}
	}
	if got := New(2, WithQuantum(7*simtime.Millisecond)).Quantum(); got != 7*simtime.Millisecond {
		t.Fatalf("WithQuantum(7ms): quantum %v", got)
	}
}
