// Tests for the submit path: per-tenant FIFO across backpressure waits, the
// "accepted work is never departed as Blocked" invariant for tenants that
// resubmit from inside their own tasks, and the zero-allocation guarantee of
// SubmitTask — the submit-side twin of TestDispatchHotPathZeroAlloc.

package rt

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"sfsched/internal/simtime"
)

// TestIntakeOverflowPreservesTenantFIFO checks per-producer FIFO when a
// tenant's submissions overflow its backlog: the single worker is pinned by a
// gated task while several producers submit to one tenant with a tiny
// QueueCap, so every producer ends up parked on the tenant's notFull
// condition. Once the gate opens, each completion frees one slot and wakes
// one waiter; whatever order the waiters resume in, every producer's tasks
// must run in the order that producer submitted them, and none may be lost.
func TestIntakeOverflowPreservesTenantFIFO(t *testing.T) {
	const (
		queueCap  = 4
		producers = 3
		each      = 100
	)
	r := New(Config{Workers: 1, Quantum: simtime.Millisecond, QueueCap: queueCap})
	defer r.Close()
	gate, err := r.Register("gate", 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := r.Register("rec", 1)
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	release := make(chan struct{})
	if err := gate.SubmitTask(Once(func() {
		close(running)
		<-release
	})); err != nil {
		t.Fatal(err)
	}
	<-running // the only worker is now pinned; rec's backlog cannot drain

	type item struct{ p, k int }
	order := make([]item, 0, producers*each) // appended by rec's serial tasks
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				it := item{p, k}
				if err := rec.SubmitTask(Once(func() { order = append(order, it) })); err != nil {
					t.Errorf("producer %d submit %d: %v", p, k, err)
					return
				}
			}
		}(p)
	}
	// Open the gate only once the backlog is full and every producer is
	// parked on backpressure, so all of them resume through notFull.
	for {
		sh := rec.lockShard()
		parked := rec.n == queueCap && rec.waiters == producers
		sh.mu.Unlock()
		if parked {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	r.Drain()
	if len(order) != producers*each {
		t.Fatalf("ran %d tasks, want %d", len(order), producers*each)
	}
	next := make([]int, producers)
	for i, it := range order {
		if it.k != next[it.p] {
			t.Fatalf("per-producer FIFO inversion at position %d: producer %d ran task %d, want %d",
				i, it.p, it.k, next[it.p])
		}
		next[it.p]++
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSelfResubmitDoesNotWake pins the invariant "no tenant with accepted,
// unretired work is ever departed as Blocked". A task that submits its
// successor from inside its own closure leaves the tenant's backlog non-empty
// when the slice completes, so the tenant must stay in the runnable set: it
// wakes exactly once (the first submit) and never re-enters through the §2.3
// wakeup rule S_i = max(F_i, v), which would erase its lag.
func TestSelfResubmitDoesNotWake(t *testing.T) {
	r := New(Config{Workers: 1, Quantum: simtime.Millisecond})
	defer r.Close()
	tn, err := r.Register("chain", 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	remaining := n // touched only by the tenant's serially run tasks
	var step Task
	step = Once(func() {
		remaining--
		if remaining > 0 {
			if err := tn.SubmitTask(step); err != nil {
				t.Errorf("resubmit: %v", err)
			}
		}
	})
	if err := tn.SubmitTask(step); err != nil {
		t.Fatal(err)
	}
	r.Drain()
	if remaining != 0 {
		t.Fatalf("chain stopped with %d tasks left", remaining)
	}
	st := r.Stats()
	if len(st) != 1 {
		t.Fatalf("got %d tenant stats, want 1", len(st))
	}
	if w := st[0].Wake.Count; w != 1 {
		t.Fatalf("self-resubmitting tenant woke %d times, want 1", w)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSubmitHotPathZeroAlloc pins the 0 allocs/op guarantee of the submit
// side: a steady wakeup regime where every SubmitTask takes the shard lock,
// checks backpressure and re-admits the tenant to the scheduler, under a
// Manual runtime so the whole cycle stays on one goroutine.
//
// The locked=false/locked=true subtests are the two routes submissions
// used to take: the default route (formerly a lock-free intake ring) and the
// opt-in locked baseline. Both are now the one shard-locked admission, so the
// two cases run the same cycle; they keep their names so the guarantee stays
// pinned for both former configurations.
func TestSubmitHotPathZeroAlloc(t *testing.T) {
	for _, locked := range []bool{false, true} {
		t.Run(fmt.Sprintf("locked=%v", locked), func(t *testing.T) {
			clock := NewFakeClock()
			r := New(Config{Workers: 1, Quantum: 10 * simtime.Millisecond,
				Clock: clock, QueueCap: 4, Manual: true})
			defer r.Close()
			tn, err := r.Register("zero", 1)
			if err != nil {
				t.Fatal(err)
			}
			task := Once(func() {})
			cycle := func() {
				if err := tn.SubmitTask(task); err != nil { // wakeup: backlog is empty
					t.Fatal(err)
				}
				d := r.Dispatch(0)
				clock.Advance(simtime.Millisecond)
				d.Complete(true) // backlog empty again: tenant blocks
			}
			for i := 0; i < 100; i++ {
				cycle() // warm up free-lists and queue capacity
			}
			if n := testing.AllocsPerRun(500, cycle); n != 0 {
				t.Fatalf("submit hot path allocates %.1f per cycle, want 0", n)
			}
			if err := r.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSubmitTaskOptionsZeroAlloc pins that the unified SubmitTask entry
// point stays allocation-free with options at the call site: SubmitOption is
// a plain value and the variadic backing array never escapes, so NoWait and
// Preemptible cost nothing over the bare call.
func TestSubmitTaskOptionsZeroAlloc(t *testing.T) {
	clock := NewFakeClock()
	r := New(Config{Workers: 1, Quantum: 10 * simtime.Millisecond,
		Clock: clock, QueueCap: 4, Manual: true})
	defer r.Close()
	tn, err := r.Register("zero", 1)
	if err != nil {
		t.Fatal(err)
	}
	task := Once(func() {})
	pre := PreemptibleTask(func(SliceCtx) bool { return true })
	cycle := func() {
		if err := tn.SubmitTask(task, NoWait()); err != nil {
			t.Fatal(err)
		}
		if err := tn.SubmitTask(nil, NoWait(), Preemptible(pre)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			d := r.Dispatch(0)
			clock.Advance(simtime.Millisecond)
			d.Complete(true)
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("SubmitTask with options allocates %.1f per cycle, want 0", n)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
