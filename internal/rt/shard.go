// shard is one dispatch partition of the runtime: a private scheduler, a
// private lock, and a contiguous block of the worker pool. With Shards ≤ 1
// the single shard *is* the paper's central run queue; with more, each shard
// schedules its own tenants independently and the rebalancer (rebalance.go)
// keeps the per-shard weight sums proportional to the per-shard processor
// counts so the partitioned schedule tracks the single-queue one.
//
// A shard never names a concrete policy type: it hosts an engine.Engine
// wrapped around the policy, and every scheduling decision — admit, pick,
// slice start, interim charge, settlement, departure — routes through that
// engine, which also exposes the policy's optional capability views (VT,
// Lag, Frame, Pre), nil when the policy does not provide them.

package rt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sfsched/internal/engine"
	"sfsched/internal/metrics"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

type shard struct {
	r           *Runtime
	id          int
	workers     int // processors owned by this shard
	firstWorker int // global index of the shard's first worker (contiguous block)

	// mu serializes all scheduling on this shard — the per-shard equivalent
	// of the kernel run-queue lock. It guards every field below and every
	// mutable field of the tenants currently assigned here.
	mu sync.Mutex
	// eng is the shared decision core (internal/engine) wrapped around this
	// shard's private policy instance: the same pick/charge/preempt/migrate
	// code the simulated machine drives, here driven by the wall clock.
	eng      *engine.Engine
	byThread map[*sched.Thread]*Tenant
	weight   float64          // Σ tenant weights: the shard's sub-share of the machine
	queued   int              // queued tasks across this shard's tenants
	running  int              // dispatched slices in flight on this shard
	service  simtime.Duration // total time charged on this shard (survives migrations)
	preempts int64            // preemption flags raised on this shard's slices
	waitHist metrics.Histogram
	wakeHist metrics.Histogram
	// intakeHist is the submit→absorbed stage: how long a SubmitTask call
	// waited for the shard lock before its task joined the backlog.
	intakeHist metrics.Histogram
	workCond   *sync.Cond

	// Slice enforcement (enforcer.go). active lists the in-flight slices —
	// the preemption scans and the enforcer's interim-charge pass iterate it
	// instead of a worker-index range, since handed-off slices live outside
	// any slot range. lanes is the free-lane stack of an anonymous
	// lane/goroutine pairing: a handoff pushes the confiscated lane here and
	// signals spareCond, where laneless goroutines (spares, and ex-workers
	// finishing detached closures) park. dfree pools detached records.
	active       []*Dispatched
	lanes        []int
	spareCond    *sync.Cond
	dfree        []*Dispatched
	wheel        timerWheel
	dueScratch   []*Dispatched
	handoffs     int64 // involuntary handoffs performed on this shard
	enforceFlags int64 // preemption flags raised by slice expiry (vs wakeups)
	interims     int64 // interim-charge installments applied
	// overrunHist records, at each handed-off slice's final completion, how
	// far past its granted slice the task ran — the enforcement-latency
	// histogram stage.
	overrunHist metrics.Histogram

	// Work stealing (steal.go). ready lists the runnable-not-running
	// tenants (markReady/unmarkReady at every runnable-set transition), so a
	// thief ranks only stealable candidates rather than every tenant on the
	// victim; nready publishes its length for lock-free victim probes.
	// idlers counts workers parked on workCond, read lock-free by offerSteal
	// to route surplus wakeups to an idle sibling. steals/stolen count this
	// shard's thefts as thief and victim; stealHist records, at each steal,
	// how long the stolen tenant had been ready on the victim — the
	// imbalance window stealing closed.
	ready     []*Tenant
	nready    atomic.Int64
	idlers    atomic.Int64
	steals    int64 // steals performed by this shard's idle workers (shard lock)
	stolen    int64 // tenants stolen from this shard (shard lock)
	stealHist metrics.Histogram
}

// enqueueLocked appends one accepted task to the tenant's backlog (the
// caller has checked the tenant is open and has room). When the task wakes
// the tenant — empty backlog, not already runnable — it is admitted with the
// §2.3 wakeup rule S_i = max(F_i, v) through the scheduler's Add, followed by
// the single-wakeup preemption check; a worker signal is owed, and with
// stealing armed and no idle local worker the wakeup is also offered to an
// idle sibling (post-lock, steal.go). at is the submit call's instant, now
// this lock hold's clock read.
func (sh *shard) enqueueLocked(tn *Tenant, q queued, at, now simtime.Time, post *postActions) {
	tn.buf[(tn.head+tn.n)%len(tn.buf)] = q
	tn.n++
	sh.queued++
	sh.r.gQueued.Add(1)
	if lat := now.Sub(at); lat >= 0 {
		sh.intakeHist.Record(lat)
	}
	if tn.inSched || tn.detached {
		// Already runnable, or busy out of band: re-admitting a detached
		// tenant would let the shard dispatch the very task that is still
		// executing, so its wakeup is deferred to the detached slice's
		// Complete.
		return
	}
	tn.th.State = sched.Runnable
	tn.readyAt = now
	tn.wokeAt = now
	tn.wokePending = true
	mustSched(sh.eng.Admit(tn.th, now))
	tn.inSched = true
	sh.markReady(tn)
	sh.maybePreemptLocked(tn, now)
	post.signals++
	if sh.r.steal && sh.idlers.Load() == 0 {
		// No parked local worker: the wakeup would wait out the next local
		// slice boundary. Offer it to an idle sibling, whose thief re-arms
		// and pulls it over — without this, a worker that parked after a
		// failed steal round never learns a sibling became backlogged.
		post.offer = true
	}
}

// dispatchLocked picks the next tenant for the given worker (global index,
// shard-local CPU) and marks it running. The returned Dispatched is the
// worker's reusable slot — every worker index has at most one dispatch in
// flight (the Dispatch contract), so the hot path allocates nothing. now is
// the caller's cached clock read for this lock hold.
func (sh *shard) dispatchLocked(worker, local int, now simtime.Time) *Dispatched {
	th, err := sh.eng.Pick(local, now)
	if err != nil {
		panic(fmt.Errorf("rt: %w", err))
	}
	if th == nil {
		return nil
	}
	tn := sh.byThread[th]
	if tn == nil || tn.n == 0 {
		panic(fmt.Errorf("rt: %w: %v with no queued work", engine.ErrUnknownThread, th))
	}
	sh.running++
	sh.unmarkReady(tn)
	// Latency accounting: ready→dispatch on every dispatch, wakeup→first
	// dispatch when a wakeup submit is still pending its dispatch. Both are
	// bare histogram increments (metrics.Histogram is fixed-size), keeping
	// the hot path allocation-free.
	if lat := now.Sub(tn.readyAt); lat >= 0 {
		tn.waitHist.Record(lat)
		sh.waitHist.Record(lat)
	}
	if tn.wokePending {
		tn.wokePending = false
		if lat := now.Sub(tn.wokeAt); lat >= 0 {
			tn.wakeHist.Record(lat)
			sh.wakeHist.Record(lat)
		}
	}
	if tn.headStarted {
		tn.resumes++ // continuing an unfinished (possibly preempted) task
	} else {
		tn.headStarted = true
	}
	d := sh.r.dslots[worker]
	if d.inFlight {
		panic(fmt.Sprintf("rt: worker %d dispatched with a slice already in flight", worker))
	}
	// Field-by-field reset (the record embeds an atomic flag, so no struct
	// assignment). The preemption flag starts clean; any flag raised against
	// the slot's previous occupant dies with that slice.
	d.r = sh.r
	d.sh = sh
	d.tn = tn
	d.worker = worker
	d.local = local
	if err := sh.eng.Begin(&d.sl, th, local, now, now); err != nil {
		panic(fmt.Errorf("rt: %w", err))
	}
	d.task = tn.buf[tn.head]
	d.inFlight = true
	d.preempted.Store(false)
	d.detached = false
	d.activeIdx = len(sh.active)
	sh.active = append(sh.active, d)
	if sh.r.enforce {
		sh.wheel.arm(d, d.sl.Start.Add(d.sl.Quantum), sh.r.enforceTick)
	}
	return d
}

// markReady adds a tenant that just became runnable-not-running to the
// shard's ready list; unmarkReady removes it (swap-remove) when it is
// dispatched or leaves the runnable set.
func (sh *shard) markReady(tn *Tenant) {
	tn.readyIdx = len(sh.ready)
	sh.ready = append(sh.ready, tn)
	sh.nready.Store(int64(len(sh.ready)))
}

func (sh *shard) unmarkReady(tn *Tenant) {
	last := len(sh.ready) - 1
	moved := sh.ready[last]
	sh.ready[tn.readyIdx] = moved
	moved.readyIdx = tn.readyIdx
	sh.ready[last] = nil
	sh.ready = sh.ready[:last]
	sh.nready.Store(int64(last))
}

// activeRemove unlinks an in-flight slice from the shard's active list
// (swap-remove; order is not meaningful, scans use explicit tie-breaks).
func (sh *shard) activeRemove(d *Dispatched) {
	last := len(sh.active) - 1
	moved := sh.active[last]
	sh.active[d.activeIdx] = moved
	moved.activeIdx = d.activeIdx
	sh.active = sh.active[:last]
}

// newSlotLocked produces a fresh (or pooled) record for a slot whose
// occupant was detached by a handoff.
func (sh *shard) newSlotLocked() *Dispatched {
	if n := len(sh.dfree); n > 0 {
		d := sh.dfree[n-1]
		sh.dfree = sh.dfree[:n-1]
		return d
	}
	return &Dispatched{}
}

// maybePreemptLocked implements wakeup preemption (shard lock held): when the
// newly woken tenant out-ranks the worst-ranked running slice under the
// policy's own sched.Preempter ordering — both sides projected to "right
// now", the running side by its uncharged in-flight service — the runtime
// raises the cooperative preemption flag on that slice. A cooperating task
// yields at its next checkpoint, its Complete charges exactly what it ran
// (SFS is built for variable-length quanta, §2.3, so the early stop never
// perturbs fairness), and the freed worker's next pick lands on the woken
// tenant, which holds the shard's minimum rank. Nothing happens when a worker
// is idle (the wakeup is absorbed without preempting), when the policy has no
// preemption order (time sharing, lottery), or when preemption is disabled.
func (sh *shard) maybePreemptLocked(woken *Tenant, now simtime.Time) {
	r := sh.r
	if !r.preempt || sh.eng.Pre == nil || sh.running < sh.workers {
		return
	}
	var victim *Dispatched
	var worst float64
	for _, d := range sh.active {
		if d.preempted.Load() {
			continue // a preemption is already pending there
		}
		// Project forward by only the *uncharged* in-flight service: with
		// enforcement armed, interim installments have already advanced the
		// tags up to the last charge (disarmed, that is the dispatch start
		// and this is the historical whole-slice projection).
		rank := sh.eng.RankRunning(&d.sl, now)
		// Ties break toward the lowest worker slot, matching the old
		// ascending-index scan (the active list is in dispatch order, which
		// differs under handoffs).
		if victim == nil || rank > worst || (rank == worst && d.worker < victim.worker) {
			victim, worst = d, rank
		}
	}
	if victim == nil || sh.eng.RankWoken(woken.th) >= worst {
		return
	}
	victim.preempted.Store(true)
	victim.tn.preempts++
	sh.preempts++
}

// dropBacklogLocked discards a closing tenant's pending tasks, including an
// unfinished continuation at the head.
func (sh *shard) dropBacklogLocked(tn *Tenant) {
	dropped := int64(0)
	for tn.n > 0 {
		tn.pop()
		sh.queued--
		dropped++
	}
	if dropped > 0 {
		sh.r.decQueued(dropped)
	}
}

// finalizeLocked detaches a fully-unregistered tenant from the shard. The
// caller removes it from the runtime registry (under regMu) afterwards.
func (sh *shard) finalizeLocked(tn *Tenant) {
	tn.gone = true
	delete(sh.byThread, tn.th)
	sh.weight -= tn.th.Weight
}
