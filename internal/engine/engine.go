// Package engine is the dispatch decision core shared by the repo's two
// clock drivers: internal/machine (the §4 discrete-event simulator, simulated
// clock) and internal/rt (the §5 wall-clock runtime). The paper evaluates SFS
// twice — in simulation and in a live kernel — and holds the two apart only
// by measurement; this package holds them together structurally: both drivers
// execute the same admission, pick validation, quantum grant, charge
// arithmetic, preemption ranking and virtual-time frame translation, so their
// decision traces can be compared for exact equality instead of statistical
// tolerance.
//
// The engine is policy-agnostic: it wraps one sched.Scheduler instance plus
// its optional capability views (sched.VirtualTimer, LagReporter,
// FrameTranslator, Preempter, InterimCharger), discovered once at
// construction and never re-asserted on a hot path. It owns no clock — every
// method takes the driver's current instant, which is how one core serves an
// event-heap simulator and a wall-clock shard without caring which is
// driving.
//
// The charge arithmetic is the part the drivers used to duplicate. A Slice
// tracks one dispatch's accounting: Start (service accrual begins),
// LastCharge (the newest installment's instant) and Charged (the installments
// so far). Both historical formulations — the simulator's advancing runStart
// and the runtime's charged/lastCharge pair — reduce to the same remainder:
//
//	remainder(now) = now − LastCharge  (clamped ≥ 0, optionally capped)
//
// because Charged telescopes to LastCharge − Start. ChargeInstallment,
// InterimInstallment and Settle are the only places this arithmetic exists;
// an architecture-guard test pins that neither driver reimplements it.
//
// A Recorder may be attached to observe every decision the engine makes; the
// structural golden tests attach one to a simulator and a Manual runtime
// driving the same scenario and require the two event sequences to be
// identical. With no recorder attached (the default) each decision pays one
// predictable nil check, preserving the drivers' 0 allocs/op dispatch paths.
package engine

import (
	"errors"
	"fmt"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// Sentinel errors for scheduler-contract violations the engine detects.
// Drivers surface them by panicking with a wrapped error value (these are
// invariant violations, not recoverable conditions), so errors.Is reports the
// same sentinel whichever driver caught it.
var (
	// ErrUnknownThread reports a Pick result the driver has no record of —
	// a thread that was never admitted, or whose backing task/tenant state
	// is gone.
	ErrUnknownThread = errors.New("engine: scheduler picked unknown thread")
	// ErrThreadRunning reports a Pick result that is already running on a
	// processor; schedulers must never double-dispatch a thread.
	ErrThreadRunning = errors.New("engine: scheduler picked running thread")
	// ErrBadTimeslice reports a non-positive quantum grant.
	ErrBadTimeslice = errors.New("engine: scheduler granted non-positive timeslice")
)

// NoCap is the charge cap for slices without a service bound: the runtime's
// wall-clock slices (a task may overrun its grant, and the overrun is real
// service). The simulator caps at the task's remaining burst instead.
const NoCap = simtime.Infinity

// Kind labels one recorded engine decision.
type Kind uint8

// Decision kinds, in the order a slice's lifecycle produces them.
const (
	KindAdmit   Kind = iota // thread entered the runnable set
	KindDepart              // thread left the runnable set
	KindPick                // scheduler selected a thread for a processor
	KindBegin               // slice granted: quantum Ran on processor CPU
	KindInterim             // mid-slice charge installment of Ran
	KindSettle              // boundary settlement charge of Ran
)

// Event is one recorded engine decision. For KindBegin, Ran is the granted
// quantum; for the charge kinds it is the charged duration; otherwise zero.
type Event struct {
	Kind Kind
	ID   int // sched.Thread.ID
	CPU  int // processor index for Pick/Begin, sched.NoCPU otherwise
	Ran  simtime.Duration
	Now  simtime.Time
}

// Recorder observes engine decisions; the structural golden tests implement
// it. Record is called with the engine's caller's locks held — it must not
// block or re-enter the engine.
type Recorder interface {
	Record(Event)
}

// Engine binds one scheduler instance to the shared decision core. The
// capability views are exported so drivers can branch on presence (e.g. skip
// the preemption scan entirely under a policy with no Preempter) without
// re-asserting interfaces on hot paths. An Engine is not safe for concurrent
// use; each driver guards it with its own lock (the machine is single-
// threaded, each rt shard holds its lock).
type Engine struct {
	sch sched.Scheduler

	// Optional capability views of sch, nil when unimplemented.
	VT      sched.VirtualTimer    // virtual time, for metrics export
	Lag     sched.LagReporter     // fresh surpluses, for migration/steal ranking
	Frame   sched.FrameTranslator // virtual-time frame leads, for cross-instance moves
	Pre     sched.Preempter       // wakeup-preemption ranking
	Interim sched.InterimCharger  // mid-slice charge installments

	rec Recorder
}

// New builds an engine over sch, discovering its capability views once.
func New(sch sched.Scheduler) *Engine {
	e := &Engine{sch: sch}
	e.VT, _ = sch.(sched.VirtualTimer)
	e.Lag, _ = sch.(sched.LagReporter)
	e.Frame, _ = sch.(sched.FrameTranslator)
	e.Pre, _ = sch.(sched.Preempter)
	e.Interim, _ = sch.(sched.InterimCharger)
	return e
}

// Scheduler returns the wrapped policy instance.
func (e *Engine) Scheduler() sched.Scheduler { return e.sch }

// SetRecorder attaches (or, with nil, detaches) a decision recorder.
func (e *Engine) SetRecorder(rec Recorder) { e.rec = rec }

// Slice is the accounting state of one dispatch: who runs, since when, under
// what grant, and how much of the elapsed time has already been charged.
// Drivers embed it by value in their per-processor / per-slot records, so the
// hot paths allocate nothing.
type Slice struct {
	Thread *sched.Thread
	// Start is the instant service accrual began (the dispatch instant, or
	// later when a context-switch cost delays it).
	Start simtime.Time
	// Quantum is the scheduler's granted timeslice.
	Quantum simtime.Duration
	// Charged is the service already accounted by installments; LastCharge
	// is the newest installment's instant (Start when none have landed).
	// Invariant: Charged == LastCharge − Start.
	Charged    simtime.Duration
	LastCharge simtime.Time
}

// Uncharged returns the in-flight service accrued since the last installment,
// clamped at zero: the one remainder formula both drivers settle and project
// preemption ranks by.
func (sl *Slice) Uncharged(now simtime.Time) simtime.Duration {
	ran := now.Sub(sl.LastCharge)
	if ran < 0 {
		ran = 0
	}
	return ran
}

// Elapsed returns the wall/sim time since the slice began, clamped at zero.
func (sl *Slice) Elapsed(now simtime.Time) simtime.Duration {
	el := now.Sub(sl.Start)
	if el < 0 {
		el = 0
	}
	return el
}

// Admit marks t runnable and adds it to the runnable set — an arrival or a
// wakeup, admitted under the policy's own §2.3 rule (S_i = max(F_i, v) for
// the tag schedulers).
func (e *Engine) Admit(t *sched.Thread, now simtime.Time) error {
	t.State = sched.Runnable
	if err := e.sch.Add(t, now); err != nil {
		return err
	}
	if e.rec != nil {
		e.rec.Record(Event{Kind: KindAdmit, ID: t.ID, CPU: sched.NoCPU, Now: now})
	}
	return nil
}

// AdmitBatch admits several threads at one instant, in order, stopping at the
// first error.
func (e *Engine) AdmitBatch(ts []*sched.Thread, now simtime.Time) error {
	for _, t := range ts {
		if err := e.Admit(t, now); err != nil {
			return err
		}
	}
	return nil
}

// Depart removes t from the runnable set with the given terminal state
// (sched.Blocked or sched.Exited).
func (e *Engine) Depart(t *sched.Thread, state sched.State, now simtime.Time) error {
	t.State = state
	if err := e.sch.Remove(t, now); err != nil {
		return err
	}
	if e.rec != nil {
		e.rec.Record(Event{Kind: KindDepart, ID: t.ID, CPU: sched.NoCPU, Now: now})
	}
	return nil
}

// Pick asks the policy for the next thread to run on cpu, validating the
// scheduler contract: the result must not already be running. It returns
// (nil, nil) when no runnable non-running thread exists. Membership checks
// (does the driver know this thread?) stay with the driver, which wraps
// ErrUnknownThread.
func (e *Engine) Pick(cpu int, now simtime.Time) (*sched.Thread, error) {
	t := e.sch.Pick(cpu, now)
	if t == nil {
		return nil, nil
	}
	if t.Running() {
		return nil, fmt.Errorf("%w: %v", ErrThreadRunning, t)
	}
	if e.rec != nil {
		e.rec.Record(Event{Kind: KindPick, ID: t.ID, CPU: cpu, Now: now})
	}
	return t, nil
}

// Begin opens a slice for t on cpu: asks the policy for its quantum
// (validated positive), binds the thread to the processor, and initializes
// the charge accounting. start is the instant service accrual begins — now,
// or later when the driver bills a context-switch delay first.
func (e *Engine) Begin(sl *Slice, t *sched.Thread, cpu int, now, start simtime.Time) error {
	q := e.sch.Timeslice(t, now)
	if q <= 0 {
		return fmt.Errorf("%w: %s granted %v", ErrBadTimeslice, e.sch.Name(), q)
	}
	t.CPU = cpu
	sl.Thread = t
	sl.Start = start
	sl.Quantum = q
	sl.Charged = 0
	sl.LastCharge = start
	if e.rec != nil {
		e.rec.Record(Event{Kind: KindBegin, ID: t.ID, CPU: cpu, Ran: q, Now: now})
	}
	return nil
}

// ChargeInstallment charges the slice's uncharged in-flight service as a
// mid-slice installment, capped at cap (the simulator passes the remaining
// burst; pass NoCap for unbounded slices). It uses the policy's
// InterimCharger when present — whose contract makes installments compose
// exactly with the boundary settlement — and plain Charge otherwise, and is
// a no-op returning 0 when nothing has accrued.
func (e *Engine) ChargeInstallment(sl *Slice, now simtime.Time, cap simtime.Duration) simtime.Duration {
	ran := now.Sub(sl.LastCharge)
	if ran <= 0 {
		return 0
	}
	if ran > cap {
		ran = cap
	}
	if e.Interim != nil {
		e.Interim.InterimCharge(sl.Thread, ran, now)
	} else {
		e.sch.Charge(sl.Thread, ran, now)
	}
	sl.Charged += ran
	sl.LastCharge = now
	if e.rec != nil {
		e.rec.Record(Event{Kind: KindInterim, ID: sl.Thread.ID, CPU: sched.NoCPU, Ran: ran, Now: now})
	}
	return ran
}

// InterimInstallment is ChargeInstallment restricted to policies that opt in
// to mid-slice charging: with no InterimCharger it charges nothing and
// returns 0, leaving boundary-only policies (time sharing, lottery)
// untouched. The runtime's enforcement pass uses it.
func (e *Engine) InterimInstallment(sl *Slice, now simtime.Time) simtime.Duration {
	if e.Interim == nil {
		return 0
	}
	return e.ChargeInstallment(sl, now, NoCap)
}

// Settle charges the slice's remainder at its boundary: remainder =
// now − LastCharge (equivalently elapsed − Charged), clamped ≥ 0 and capped
// at cap. The charge is issued unconditionally — a zero-length remainder
// still passes through the scheduler, exactly as both drivers historically
// did — and the slice's accounting is closed. Processor bookkeeping
// (CPU/LastCPU fields) stays with the driver, which orders it around the
// settlement exactly as its trace requires.
func (e *Engine) Settle(sl *Slice, now simtime.Time, cap simtime.Duration) simtime.Duration {
	ran := now.Sub(sl.LastCharge)
	if ran < 0 {
		ran = 0
	}
	if ran > cap {
		ran = cap
	}
	e.sch.Charge(sl.Thread, ran, now)
	sl.Charged += ran
	sl.LastCharge = now
	if e.rec != nil {
		e.rec.Record(Event{Kind: KindSettle, ID: sl.Thread.ID, CPU: sched.NoCPU, Ran: ran, Now: now})
	}
	return ran
}

// RankRunning returns the preemption rank of an in-flight slice projected to
// now: the thread's tags advanced by only its genuinely uncharged service
// (installments already moved LastCharge forward). Callers must have checked
// Pre != nil.
func (e *Engine) RankRunning(sl *Slice, now simtime.Time) float64 {
	return e.Pre.PreemptRank(sl.Thread, sl.Uncharged(now))
}

// RankWoken returns the preemption rank of a just-woken thread (no in-flight
// service to project). Callers must have checked Pre != nil.
func (e *Engine) RankWoken(t *sched.Thread) float64 {
	return e.Pre.PreemptRank(t, 0)
}

// LessVictim selects the least-deserving thread among running — the one the
// policy's own Less ordering prefers every other over — returning its index,
// or -1 when running is empty. Ties break to the lowest index, matching the
// simulator's historical ascending scan.
func (e *Engine) LessVictim(running []*sched.Thread) int {
	victim := -1
	for i, t := range running {
		if victim == -1 || e.sch.Less(running[victim], t) {
			victim = i
		}
	}
	return victim
}

// Prefer reports whether the policy's own ordering prefers a over b — the
// reschedule-on-wakeup comparison between a newcomer and the chosen victim.
func (e *Engine) Prefer(a, b *sched.Thread) bool { return e.sch.Less(a, b) }

// Surplus returns the thread's fresh surplus (§3.1: α_i = φ_i·(S_i − v))
// when the policy reports lags, and 0 otherwise — the migration/steal
// candidate ranking, where ties then break on thread ID.
func (e *Engine) Surplus(t *sched.Thread) float64 {
	if e.Lag == nil {
		return 0
	}
	return e.Lag.FreshSurplus(t)
}

// CaptureLead reads the thread's virtual-time frame lead for a cross-instance
// move, clamped at zero: a thread behind its frame's virtual time would have
// its debt erased by the destination's wakeup rule anyway, and the clamp
// keeps migration from minting credit. It reports false when the policy does
// not translate frames. The thread must be outside the runnable set, per the
// sched.FrameTranslator contract.
func (e *Engine) CaptureLead(t *sched.Thread) (float64, bool) {
	if e.Frame == nil {
		return 0, false
	}
	lead := e.Frame.FrameLead(t)
	if lead < 0 {
		lead = 0
	}
	return lead, true
}

// RestoreLead re-expresses a captured lead in this engine's virtual-time
// frame, reporting whether the policy supports it. The thread must not yet be
// in the runnable set; its next Admit applies the wakeup rule against the
// restored tag.
func (e *Engine) RestoreLead(t *sched.Thread, lead float64) bool {
	if e.Frame == nil {
		return false
	}
	e.Frame.SetFrameLead(t, lead)
	return true
}

// TransferLead carries t's frame lead from src's virtual-time frame to dst's
// — the lead-preserving translation migration, stealing and cluster
// deport/admit all use. It is a no-op (reporting false) unless both policies
// translate frames; policies without tag frames migrate their per-thread
// state as-is.
func TransferLead(src, dst *Engine, t *sched.Thread) bool {
	lead, ok := src.CaptureLead(t)
	if !ok {
		return false
	}
	return dst.RestoreLead(t, lead)
}
