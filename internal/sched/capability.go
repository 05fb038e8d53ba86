// Optional capability interfaces: narrow views a Scheduler may additionally
// implement. The sharded runtime (internal/rt) discovers them with one type
// assertion per shard at construction and never names a concrete policy
// type, so any Scheduler — SFS, SFQ, stride, BVT, hierarchical SFS, time
// sharing, lottery — can be dispatched, rebalanced and reported on behind
// per-CPU runqueues. A policy that lacks a capability still shards; the
// runtime substitutes a policy-agnostic fallback (a service-minus-entitlement
// lag rank for migration, a no-op frame translation) and degrades only the
// quality of rebalancing decisions, never correctness.

package sched

import "sfsched/internal/simtime"

// VirtualTimer reports the scheduler's current virtual time: the global
// normalized-service frame its tags are measured against (v for the
// fair-queueing family, the global pass for stride). Policies without a
// virtual-time notion (time sharing, lottery) simply do not implement it.
type VirtualTimer interface {
	// VirtualTime returns the current virtual time, in the policy's own
	// tag units. It is monotone within one scheduler instance; values are
	// not comparable across instances (see FrameTranslator).
	VirtualTime() float64
}

// LagReporter ranks threads for cross-shard migration: FreshSurplus returns
// how far ahead of its ideal proportional allocation the thread currently
// is, in the policy's tag units (SFS's α_i = φ_i·(S_i − v), or an analogue).
// Larger is "more ahead"; the rebalancer prefers to migrate high-surplus
// threads because the wakeup-style re-entry on the destination shard costs
// them the least. Only relative order within one scheduler instance matters.
type LagReporter interface {
	// FreshSurplus returns t's surplus against the scheduler's current
	// virtual time. t must be in the scheduler's runnable set.
	FreshSurplus(t *Thread) float64
}

// Preempter ranks threads for wakeup preemption: "would this newly-woken
// thread out-rank thread T right now?". PreemptRank returns a thread's claim
// on a processor — smaller is more deserving — *projected forward* by ran of
// service the thread has consumed since its tags were last charged. The
// projection is what makes the answer "right now": a runtime that charges
// only at slice boundaries (internal/rt) holds stale tags for running
// threads, and comparing a woken thread against a mid-slice CPU hog on stale
// tags would systematically under-preempt. A woken thread w therefore
// preempts a running thread t when
//
//	PreemptRank(w, 0) < PreemptRank(t, ran_t)
//
// where ran_t is t's uncharged in-flight service. Ranks are comparable only
// within one scheduler instance at one instant; the projection is advisory
// (it mutates nothing), so a policy may approximate — fixed-point SFS ranks
// in float — without perturbing its tag arithmetic or decision traces.
// Policies with no preference order over wakeups (time sharing's epoch
// counters already encode their own I/O boost; lottery is memoryless) simply
// do not implement it, and the runtime never raises a preemption flag for
// them.
type Preempter interface {
	// PreemptRank returns t's preemption rank (smaller = more deserving of
	// a processor) as if t had additionally been charged ran right now.
	// Pass ran = 0 for a thread that is not running.
	PreemptRank(t *Thread, ran simtime.Duration) float64
}

// InterimCharger accounts in-flight service to a still-running thread in the
// middle of its slice — the runtime analogue of internal/machine's
// syncRunning. A runtime that charges only at slice boundaries (internal/rt's
// charge-at-completion model) holds stale tags for running threads; the slice
// enforcer calls InterimCharge once per enforcement tick so a running
// thread's tags are never more than one tick behind its real consumption.
//
// The contract is charge splitting: for any partition ran = r₁ + … + rₙ,
// calling InterimCharge for r₁…rₙ₋₁ followed by Charge for rₙ must leave the
// thread's tags where a single Charge(ran) would have (up to floating-point
// or fixed-point rounding of the individual divisions — never a different
// scheduling decision class). Every policy whose tag advance is linear in the
// charged duration satisfies this for free by delegating to Charge; SFS's
// variable-length-quanta property (§2.3) is exactly what makes the split
// well-defined there. Policies whose accounting samples time instead of
// integrating it (time sharing's tick counters, lottery's memoryless draws)
// do not implement the capability, and the enforcer leaves their running tags
// stale — the documented degradation mode.
type InterimCharger interface {
	// InterimCharge charges ran of service to t as a mid-slice installment.
	// t must be managed by the scheduler and currently Running; the slice's
	// eventual boundary Charge must cover only the remainder, not re-charge
	// installments already paid.
	InterimCharge(t *Thread, ran simtime.Duration, now simtime.Time)
}

// FrameTranslator carries a thread's virtual-time position across scheduler
// instances, the cross-shard migration hook: tag frames are per-instance
// (each shard's virtual time advances at its own pace), so a migrating
// thread's tags must be re-expressed relative to the destination's frame or
// it would arrive arbitrarily far in the past (banking credit) or future
// (starving). FrameLead captures the thread's position relative to the
// source's frame; SetFrameLead re-creates that position relative to the
// destination's. Both are called with the thread outside any runnable set
// (the migration removes it first and re-adds it after).
//
// The seam is reused at two scales: the intra-box rebalancer translates
// frames between the shards of one runtime (internal/rt/rebalance.go), and
// the cluster tier's cross-machine migration carries the same lead across
// whole runtimes (rt.Deport captures it, rt.Admit restores it on another
// machine's scheduler instance). Nothing here is shard-specific — the
// contract holds between any two instances of frame-tagged schedulers —
// which is why the cluster tier needed no new capability.
type FrameTranslator interface {
	// FrameLead returns how far the thread's tag sits ahead of this
	// scheduler's current virtual time, in tag units.
	FrameLead(t *Thread) float64
	// SetFrameLead rewrites the thread's tag to sit lead ahead of this
	// scheduler's current virtual time, so a subsequent Add re-admits it
	// with the same relative position it held on the source scheduler.
	SetFrameLead(t *Thread, lead float64)
}
