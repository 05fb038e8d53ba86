// Package core implements Surplus Fair Scheduling (SFS), the paper's primary
// contribution (§2.3), together with the kernel implementation techniques of
// §3: the three sorted run queues, the bounded-examination scheduling
// heuristic, fixed-point tag arithmetic with wraparound rebasing, and the
// weight readjustment hook invoked whenever the runnable set changes.
//
// # Algorithm
//
// Every thread carries a start tag S_i and finish tag F_i. When a thread
// runs for q units its finish tag becomes F_i = S_i + q/φ_i, where φ_i is
// the instantaneous weight computed by the readjustment algorithm
// (internal/readjust via internal/phi), and its start tag advances to F_i.
// The system's virtual time v is the minimum start tag over runnable threads
// (the finish tag of the last thread to run when the machine idles). The
// surplus of a thread is
//
//	α_i = φ_i · (S_i − v)
//
// which approximates the extra service the thread has received compared with
// the idealized GMS fluid schedule (internal/gms). At each scheduling
// instance SFS runs the thread with the least surplus. On a uniprocessor the
// thread with the least surplus is the thread with the least start tag, so
// SFS reduces to SFQ; TestSFSReducesToSFQOnUniprocessor checks trace
// equality.
//
// # Hot-path design: lazy surpluses (DESIGN.md §3)
//
// A charge usually advances the virtual time (the charged thread held the
// minimum start tag), and every surplus depends on v, so the obvious exact
// implementation — recompute all n surpluses and re-sort after every charge —
// costs O(n) per scheduling decision. This implementation instead keeps
// stored surpluses relative to a reference virtual time vRef (the epoch of
// the last full refresh). Between refreshes only the charged thread's stored
// surplus is updated; picks recover the exact minimum fresh surplus from the
// stale ordering using the bound
//
//	α_i(v) ≥ α_i(vRef) − φ_max·(v − vRef)
//
// (surpluses shrink by at most φ_max per unit of virtual time), scanning the
// surplus queue in stored order and stopping once no later thread can beat
// the best fresh surplus found. When a scan grows past a √n-scaled limit the
// queue is refreshed and vRef snaps back to v, keeping the amortized cost of
// a charge+pick cycle O(√n) with small constants while producing decisions
// bit-identical to the eager implementation (TestGoldenTrace*). Heuristic
// mode (§3.2) keeps the paper's own behaviour: stored surpluses refresh
// every updatePeriod decisions and picks examine k candidates per queue.
//
// # Extensions
//
// WithAffinity enables the processor-affinity extension sketched in the
// paper's future-work section (§5): among threads whose surplus is within a
// configurable margin of the minimum, the scheduler prefers one that last ran
// on the dispatching CPU, trading a bounded amount of short-term fairness for
// cache locality. WithoutReadjustment disables weight readjustment for
// ablation experiments that isolate its contribution. WithPhiSource replaces
// Figure 2 with another φ computation over the same queues: the hierarchical
// scheduler (internal/hier) is this scheduler with φ taken from a class tree.
package core

import (
	"fmt"
	"math"
	"sort"

	"sfsched/internal/fixedpoint"
	"sfsched/internal/phi"
	"sfsched/internal/runqueue"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// DefaultQuantum is the maximum quantum used throughout the paper's
// evaluation (§4.1).
const DefaultQuantum = 200 * simtime.Millisecond

// Stats counts scheduler-internal events for the overhead experiments
// (Table 1, Figure 7) and the ablation benchmarks.
type Stats struct {
	Decisions     int64 // Pick calls that returned a thread
	Readjustments int64 // weight readjustment passes that changed some φ
	SurplusSweeps int64 // full surplus recomputations + re-sorts
	Rebases       int64 // fixed-point tag wraparound rebases
	HeuristicHits int64 // heuristic picks (WithHeuristic only)
	Migrations    int64 // picks where the thread last ran on a different CPU
}

// SFS is a surplus fair scheduler for a symmetric multiprocessor. It is not
// safe for concurrent use; the simulated machine serializes access, exactly
// as the kernel's run-queue lock does.
type SFS struct {
	p       int
	quantum simtime.Duration

	weights   *phi.Tracker                  // queue 1: descending weight + φ values
	byStart   *runqueue.Heap[*sched.Thread] // queue 2: min-heap on (start tag, ID)
	bySurplus *runqueue.Heap[*sched.Thread] // queue 3: min-heap on stored surplus

	kScratch []*sched.Thread // heuristic first-k candidate scratch

	v          float64 // virtual time
	lastFinish float64 // finish tag of the thread that ran last

	// Exact mode keeps stored surpluses relative to vRef, the virtual time
	// of the last full refresh; picks compensate for the drift v − vRef.
	vRef        float64
	fxVRef      fixedpoint.Value
	scanLimit   int  // pick scan length that triggers a refresh
	needRefresh bool // set by an over-long pick scan, consumed by Charge

	// Heuristic mode (§3.2): examine only the first k threads of each
	// queue; refresh stored surpluses every updatePeriod decisions.
	k            int
	updatePeriod int64
	sinceUpdate  int64

	// Fixed-point mode (§3.2): tags computed in scaled integers. fxShift
	// accumulates the total wraparound-rebase shift; threads carry the
	// shift already applied to their tags (Thread.FxShift), so a thread
	// that blocked before a rebase is moved into the current frame on Add.
	fixed        bool
	scale        fixedpoint.Scale
	fxV          fixedpoint.Value
	fxLastFinish fixedpoint.Value
	fxShift      fixedpoint.Value
	rebaseThresh fixedpoint.Value
	fxSlack      float64 // truncation allowance for the pick-scan bound

	affinityMargin float64   // <0 disables the affinity extension
	phis           PhiSource // φ source replacing Figure 2; nil: weights assigns φ

	stats Stats
}

// Option configures an SFS instance.
type Option func(*SFS)

// WithQuantum sets the maximum quantum granted per dispatch; q <= 0 keeps
// DefaultQuantum.
func WithQuantum(q simtime.Duration) Option {
	return func(s *SFS) {
		if q > 0 {
			s.quantum = q
		}
	}
}

// WithHeuristic enables the bounded-examination heuristic, inspecting the
// first k threads of each of the three queues per decision (k > 0). The
// paper finds k=20 gives >99% accuracy for up to 400 runnable threads on
// four processors (Figure 3).
func WithHeuristic(k int) Option {
	return func(s *SFS) { s.k = k }
}

// WithUpdatePeriod sets how many decisions may elapse between full surplus
// refreshes in heuristic mode ("infrequent updates and sorting are still
// required to maintain a high accuracy of the heuristic", §3.2).
func WithUpdatePeriod(n int64) Option {
	return func(s *SFS) { s.updatePeriod = n }
}

// WithFixedPoint switches tag arithmetic to scaled integers with factor
// 10^digits, reproducing the kernel implementation (the paper found 4 digits
// adequate).
func WithFixedPoint(digits int) Option {
	return func(s *SFS) {
		s.fixed = true
		s.scale = fixedpoint.MustScale(digits)
		// MulValue truncates; a fresh surplus recomputed against the
		// current v can undershoot the drift-compensated stored value by a
		// few quantization units. The pick-scan cutoff allows for them.
		s.fxSlack = 3.0 / float64(s.scale.Factor())
	}
}

// WithRebaseThreshold overrides the tag magnitude that triggers a wraparound
// rebase; tests use small thresholds to exercise the rebase path.
func WithRebaseThreshold(v fixedpoint.Value) Option {
	return func(s *SFS) { s.rebaseThresh = v }
}

// WithAffinity enables the processor-affinity extension: among threads whose
// surplus exceeds the minimum by at most margin, prefer one whose last CPU is
// the dispatching CPU. margin is in surplus units (weighted virtual time,
// i.e. seconds).
func WithAffinity(margin float64) Option {
	return func(s *SFS) { s.affinityMargin = margin }
}

// WithoutReadjustment disables the weight readjustment algorithm (φ_i = w_i
// always); used by ablation experiments only.
func WithoutReadjustment() Option {
	return func(s *SFS) { s.weights = phi.NewTracker(s.p, false) }
}

// PhiSource computes the instantaneous weights φ of the runnable set in place
// of Figure 2. The weight queue still tracks the runnable set, with φ_i = w_i,
// and the scheduler calls the source after each change to it: Join after t
// became runnable, Leave after t stopped being runnable, Reweight after t's
// weight changed. The source then assigns φ to every thread whose rate
// changed and passes each one to the function registered with OnPhiChange.
// Join and Leave report whether any φ changed.
type PhiSource interface {
	OnPhiChange(fn func(*sched.Thread))
	Join(t *sched.Thread) bool
	Leave(t *sched.Thread) bool
	Reweight(t *sched.Thread)
	// MaxPhi bounds every runnable thread's φ, for the exact pick scan's
	// drift bound. Figure 2 never raises a weight, so without a source the
	// heaviest requested weight is the bound.
	MaxPhi() float64
}

// WithPhiSource takes every runnable thread's φ from src instead of from
// Figure 2's readjustment.
func WithPhiSource(src PhiSource) Option {
	return func(s *SFS) {
		s.weights = phi.NewTracker(s.p, false)
		s.phis = src
	}
}

// New returns an SFS scheduler for p processors. It panics if p < 1; callers
// validate processor counts that come from user input.
func New(p int, opts ...Option) *SFS {
	if p < 1 {
		panic(fmt.Sprintf("core: invalid processor count %d", p))
	}
	s := &SFS{
		p:              p,
		quantum:        DefaultQuantum,
		weights:        phi.NewTracker(p, true),
		updatePeriod:   50,
		scanLimit:      32,
		rebaseThresh:   fixedpoint.WrapThreshold,
		affinityMargin: -1,
	}
	s.byStart = runqueue.NewHeap(runqueue.SlotPrimary, func(a, b *sched.Thread) bool {
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.ID < b.ID
	})
	// Equal surpluses tie-break by descending weight then ID, mirroring
	// SFQ's tie order so that the uniprocessor reduction (SFS ≡ SFQ,
	// §2.3) holds decision-for-decision, not just in aggregate. The heap
	// order and pickExact's no-drift prune predicate must be the same
	// function, so both use surplusHeapLess.
	s.bySurplus = runqueue.NewHeap(runqueue.SlotSurplus, surplusHeapLess)
	for _, o := range opts {
		o(s)
	}
	// φ changes arrive thread-by-thread from the readjustment pass; keep
	// the derived state (FxPhi cache, stored surplus, queue position) of
	// each affected thread current instead of sweeping the whole set.
	onPhi := func(t *sched.Thread) {
		if s.fixed {
			t.FxPhi = s.scale.FromFloat(t.Phi)
		}
		if s.k == 0 && s.bySurplus.Contains(t) {
			s.storeSurplus(t)
			s.bySurplus.Fix(t)
		}
	}
	s.weights.OnPhiChange(onPhi)
	if s.phis != nil {
		s.phis.OnPhiChange(onPhi)
	}
	return s
}

// SFS implements the full capability set the sharded runtime can exploit.
var (
	_ sched.Scheduler       = (*SFS)(nil)
	_ sched.VirtualTimer    = (*SFS)(nil)
	_ sched.LagReporter     = (*SFS)(nil)
	_ sched.FrameTranslator = (*SFS)(nil)
	_ sched.Preempter       = (*SFS)(nil)
)

// Name implements sched.Scheduler.
func (s *SFS) Name() string {
	if s.k > 0 {
		return fmt.Sprintf("SFS(k=%d)", s.k)
	}
	return "SFS"
}

// NumCPU implements sched.Scheduler.
func (s *SFS) NumCPU() int { return s.p }

// Runnable implements sched.Scheduler.
func (s *SFS) Runnable() int { return s.byStart.Len() }

// VirtualTime returns the scheduler's current virtual time v (minimum start
// tag over runnable threads).
func (s *SFS) VirtualTime() float64 { return s.v }

// FreshSurplus returns t's surplus α_i = φ_i·(S_i − v) against the current
// virtual time, in the arithmetic (float or fixed) a full refresh would use.
// The sharded runtime's rebalancer uses it (via sched.LagReporter) to choose
// migration victims: a thread with a large surplus is ahead of its ideal
// allocation, so the wakeup-style tag re-entry a migration entails costs it
// the least.
func (s *SFS) FreshSurplus(t *sched.Thread) float64 { return s.freshSurplus(t) }

// FrameLead implements sched.FrameTranslator: the lead of t's finish tag
// over this scheduler's virtual time, in the arithmetic the instance uses.
// In fixed-point mode a thread that blocked before a wraparound rebase is
// first brought into the current tag frame, as Add would.
func (s *SFS) FrameLead(t *sched.Thread) float64 {
	if s.fixed {
		fxF := t.FxFinish - (s.fxShift - t.FxShift)
		return s.scale.Float(fxF - s.fxV)
	}
	return t.Finish - s.v
}

// SetFrameLead implements sched.FrameTranslator: rewrites t's finish tag to
// sit lead ahead of this scheduler's virtual time, so the §2.3 wakeup rule
// S_i = max(F_i, v) re-admits the thread with the position it held on the
// shard it migrated from.
func (s *SFS) SetFrameLead(t *sched.Thread, lead float64) {
	if s.fixed {
		t.FxFinish = s.fxV + s.scale.FromFloat(lead)
		t.FxShift = s.fxShift
		t.Finish = s.scale.Float(t.FxFinish)
		return
	}
	t.Finish = s.v + lead
}

// Stats returns a snapshot of internal event counters.
func (s *SFS) Stats() Stats {
	st := s.stats
	st.Readjustments = s.weights.Passes()
	return st
}

// Quantum returns the configured maximum quantum.
func (s *SFS) Quantum() simtime.Duration { return s.quantum }

// Add implements sched.Scheduler. A newly arriving thread receives start tag
// v; a newly woken thread receives max(F_i, v), which prevents a thread from
// banking credit while asleep and starving others on wakeup (§2.3).
func (s *SFS) Add(t *sched.Thread, now simtime.Time) error {
	if !sched.ValidWeight(t.Weight) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, t.Weight)
	}
	if s.byStart.Contains(t) {
		return fmt.Errorf("%w: %v", sched.ErrAlreadyManaged, t)
	}
	if s.fixed {
		// The thread's finish tag may predate rebases that happened while
		// it slept; bring it into the current tag frame first so that the
		// max(F_i, v) wakeup rule compares like with like.
		if delta := s.fxShift - t.FxShift; delta != 0 {
			t.FxFinish -= delta
			t.Finish = s.scale.Float(t.FxFinish)
			t.FxShift = s.fxShift
		}
		if t.FxFinish > s.fxV {
			t.FxStart = t.FxFinish
		} else {
			t.FxStart = s.fxV
		}
		t.Start = s.scale.Float(t.FxStart)
	} else {
		t.Start = math.Max(t.Finish, s.v)
	}
	changed := s.weights.Add(t)
	if s.phis != nil {
		changed = s.phis.Join(t)
	}
	s.byStart.Push(t)
	// Adding a thread cannot lower v (its start tag is >= v), so only φ
	// changes require updating other threads' surpluses — and in exact
	// mode the φ hook has already repositioned each affected thread.
	s.recomputeV()
	s.storeSurplus(t)
	s.bySurplus.Push(t)
	if changed && s.k > 0 {
		s.refreshSurpluses()
	}
	return nil
}

// Remove implements sched.Scheduler; called when a thread blocks or exits.
func (s *SFS) Remove(t *sched.Thread, now simtime.Time) error {
	if !s.byStart.Contains(t) {
		return fmt.Errorf("%w: %v", sched.ErrNotManaged, t)
	}
	s.byStart.Remove(t)
	s.bySurplus.Remove(t)
	changed := s.weights.Remove(t)
	if s.phis != nil {
		changed = s.phis.Leave(t)
	}
	vChanged := s.recomputeV()
	// Stored surpluses are relative to vRef, not v, so a v change alone
	// invalidates nothing in exact mode; φ changes were handled by the
	// hook.
	if (changed || vChanged) && s.k > 0 {
		s.refreshSurpluses()
	}
	return nil
}

// Charge implements sched.Scheduler: F_i = S_i + q/φ_i, S_i = F_i. The
// quantum length q is needed only now, after the quantum has ended, which is
// what lets SFS handle variable-length quanta (§2.3).
func (s *SFS) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	if ran < 0 {
		panic("core: negative charge")
	}
	t.Service += ran
	if s.fixed {
		t.FxFinish = t.FxStart + s.scale.DivValue(s.scale.FromInt(int64(ran)), t.FxPhi)
		t.FxStart = t.FxFinish
		s.fxLastFinish = t.FxFinish
		t.Start = s.scale.Float(t.FxStart)
		t.Finish = s.scale.Float(t.FxFinish)
		s.lastFinish = t.Finish
		// Restore t's heap position before a possible rebase: rebaseTags
		// reads the minimum start tag off the heap head, and t — whose tag
		// just grew past the threshold — is the entry most likely to be
		// stale there.
		if s.byStart.Contains(t) {
			s.byStart.Fix(t)
		}
		if fixedpoint.NeedsRebase(t.FxFinish) || t.FxFinish > s.rebaseThresh {
			s.rebaseTags()
		}
	} else {
		t.Finish = t.Start + ran.Seconds()/t.Phi
		t.Start = t.Finish
		s.lastFinish = t.Finish
		if s.byStart.Contains(t) {
			s.byStart.Fix(t)
		}
	}
	vChanged := s.recomputeV()
	if s.k > 0 {
		// Heuristic mode: defer the global refresh to the periodic
		// update instead of paying it on every virtual-time change.
		if vChanged && s.dueForUpdate() {
			s.refreshSurpluses()
		} else if s.byStart.Contains(t) {
			s.storeSurplus(t)
			s.bySurplus.Fix(t)
		}
		return
	}
	// Exact mode: restore t's position against the unchanged vRef epoch;
	// refresh only when pick scans report the drift has grown expensive.
	if s.byStart.Contains(t) {
		s.storeSurplus(t)
		s.bySurplus.Fix(t)
	}
	if s.needRefresh {
		s.refreshSurpluses()
	}
}

// dueForUpdate reports (and consumes) whether a periodic surplus refresh is
// due in heuristic mode.
func (s *SFS) dueForUpdate() bool {
	s.sinceUpdate++
	if s.sinceUpdate >= s.updatePeriod {
		s.sinceUpdate = 0
		return true
	}
	return false
}

// Timeslice implements sched.Scheduler: SFS grants a fixed maximum quantum;
// threads may relinquish early by blocking.
func (s *SFS) Timeslice(t *sched.Thread, now simtime.Time) simtime.Duration {
	return s.quantum
}

// SetWeight implements sched.Scheduler; weights may be changed on the fly,
// as with the paper's setweight system call.
func (s *SFS) SetWeight(t *sched.Thread, w float64, now simtime.Time) error {
	if !sched.ValidWeight(w) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, w)
	}
	if !s.byStart.Contains(t) {
		// Not runnable right now; the new weight takes effect on Add.
		t.Weight = w
		t.Phi = w
		return nil
	}
	s.weights.UpdateWeight(t, w)
	if s.phis != nil {
		s.phis.Reweight(t)
	}
	// φ changed for t (and possibly others): in exact mode the hook has
	// restored every affected thread; heuristic mode refreshes globally.
	if s.k > 0 {
		s.refreshSurpluses()
	}
	return nil
}

// Pick implements sched.Scheduler.
func (s *SFS) Pick(cpu int, now simtime.Time) *sched.Thread {
	var t *sched.Thread
	if s.k > 0 {
		t = s.pickHeuristic(cpu)
	} else {
		t = s.pickExact(cpu)
	}
	if t != nil {
		s.stats.Decisions++
		t.Decisions++
		if t.LastCPU != sched.NoCPU && t.LastCPU != cpu {
			s.stats.Migrations++
		}
	}
	return t
}

// freshSurplus returns t's surplus against the current virtual time, using
// the same arithmetic (float or fixed) that a full refresh would.
func (s *SFS) freshSurplus(t *sched.Thread) float64 {
	if s.fixed {
		return s.scale.Float(s.scale.MulValue(t.FxPhi, t.FxStart-s.fxV))
	}
	return t.Phi * (t.Start - s.v)
}

// betterPick reports whether (fresh, t) beats the incumbent under the
// surplus queue's order: ascending surplus, then descending weight, then ID.
func betterPick(fresh float64, t *sched.Thread, bestS float64, best *sched.Thread) bool {
	if best == nil || fresh != bestS {
		return best == nil || fresh < bestS
	}
	if t.Weight != best.Weight {
		return t.Weight > best.Weight
	}
	return t.ID < best.ID
}

// surplusHeapLess is the surplus queue's order: ascending stored surplus,
// then descending weight, then ID.
func surplusHeapLess(a, b *sched.Thread) bool {
	if a.Surplus != b.Surplus {
		return a.Surplus < b.Surplus
	}
	if a.Weight != b.Weight {
		return a.Weight > b.Weight
	}
	return a.ID < b.ID
}

// pickExact returns the non-running thread with the least fresh surplus via
// a pruned traversal of the surplus heap. Stored surpluses are relative to
// vRef; since every φ_i is at most φ_max (the heaviest requested weight, or
// the φ source's MaxPhi), a fresh surplus can sit below its stored value by
// at most φ_max·|v−vRef|, so a
// subtree whose root's stored surplus exceeds the incumbent by more than
// that bound (plus the affinity margin, within which the extension may
// promote a thread that last ran on this CPU) cannot contain the answer.
// With zero drift stored surpluses ARE fresh, the bound collapses, and the
// traversal degenerates to a heap-minimum search that skips running threads.
// A small slack keeps the drifted cutoff conservative against float rounding
// and fixed-point truncation; visiting a few extra threads is harmless,
// pruning one too many would change the trace.
func (s *SFS) pickExact(cpu int) *sched.Thread {
	margin := 0.0
	affinity := s.affinityMargin >= 0
	if affinity {
		margin = s.affinityMargin
	}
	noDrift := s.noDrift()
	var bound, slack float64
	if !noDrift {
		var phiMax float64
		if s.phis != nil {
			phiMax = s.phis.MaxPhi()
		} else if h, ok := s.weights.Heaviest(); ok {
			phiMax = h.Weight
		}
		bound = phiMax * math.Abs(s.v-s.vRef)
		slack = 1e-12*(bound+phiMax*(math.Abs(s.v)+math.Abs(s.vRef))+1) + s.fxSlack
	}
	var best, bestAff *sched.Thread
	var bestS, bestAffS float64
	cut := math.Inf(1)
	scanned := 0
	s.bySurplus.EachUnder(func(t *sched.Thread) bool {
		if best != nil {
			if noDrift && !affinity {
				// Fresh == stored: only elements that precede the
				// incumbent in queue order can matter, ties included.
				if !surplusHeapLess(t, best) {
					return false
				}
			} else if t.Surplus > cut {
				return false
			}
		}
		scanned++
		if t.Running() {
			return true
		}
		fresh := s.freshSurplus(t)
		if betterPick(fresh, t, bestS, best) {
			best, bestS = t, fresh
			cut = bestS + margin + bound + slack + 1e-12*math.Abs(bestS)
			if noDrift && !affinity {
				// t's descendants are all worse; nothing below can win.
				return false
			}
		}
		if affinity && t.LastCPU == cpu && betterPick(fresh, t, bestAffS, bestAff) {
			bestAff, bestAffS = t, fresh
		}
		return true
	})
	if scanned > s.scanLimit && !noDrift {
		// A refresh collapses the drift back to zero and re-enables the
		// cheap no-drift traversal; tie crowds alone don't warrant one.
		s.needRefresh = true
	}
	if affinity && bestAff != nil && best != nil && bestAffS-bestS <= margin {
		return bestAff
	}
	return best
}

// noDrift reports whether the current virtual time still equals the vRef
// epoch, in the arithmetic the fresh surpluses would be computed in. With no
// drift every stored surplus IS the fresh surplus — the state right after a
// refresh, and throughout ramp-up phases where v sits still while late
// starters catch up.
func (s *SFS) noDrift() bool {
	if s.fixed {
		return s.fxV == s.fxVRef
	}
	return s.v == s.vRef
}

// pickHeuristic implements the §3.2 heuristic: the thread with minimum
// surplus typically has a small start tag, a small weight, or a small
// surplus at the previous update, so examining the first k entries of each
// of the three queues (the weight queue scanned backwards) and computing
// fresh surpluses for just those candidates finds it with high probability.
func (s *SFS) pickHeuristic(cpu int) *sched.Thread {
	var best *sched.Thread
	var bestSurplus float64
	consider := func(t *sched.Thread) {
		if t.Running() {
			return
		}
		fresh := t.Phi * (t.Start - s.v)
		better := best == nil || fresh < bestSurplus ||
			(fresh == bestSurplus && (t.Weight > best.Weight ||
				(t.Weight == best.Weight && t.ID < best.ID)))
		if better {
			best = t
			bestSurplus = fresh
		}
	}
	s.kScratch = s.byStart.AppendKSmallest(s.kScratch[:0], s.k)
	for _, t := range s.kScratch {
		consider(t)
	}
	s.kScratch = s.bySurplus.AppendKSmallest(s.kScratch[:0], s.k)
	for _, t := range s.kScratch {
		consider(t)
	}
	n := 0
	s.weights.EachReverse(func(t *sched.Thread) bool {
		n++
		consider(t)
		return n < s.k
	})
	if best == nil {
		// All candidates were running; stay work-conserving by falling
		// back to the earliest non-running thread in start-tag order.
		s.byStart.Each(func(t *sched.Thread) bool {
			if t.Running() {
				return true
			}
			if best == nil || t.Start < best.Start ||
				(t.Start == best.Start && t.ID < best.ID) {
				best = t
			}
			return true
		})
	}
	if best != nil {
		s.stats.HeuristicHits++
	}
	return best
}

// ExactMinSurplus returns the runnable non-running thread with the smallest
// fresh surplus, scanning every thread. It exists for the Figure 3 accuracy
// experiment, which compares the heuristic's pick against the true minimum.
func (s *SFS) ExactMinSurplus() (*sched.Thread, float64) {
	var best *sched.Thread
	var bestSurplus float64
	s.byStart.Each(func(t *sched.Thread) bool {
		if t.Running() {
			return true
		}
		fresh := t.Phi * (t.Start - s.v)
		if best == nil || fresh < bestSurplus {
			best = t
			bestSurplus = fresh
		}
		return true
	})
	return best, bestSurplus
}

// Less implements sched.Scheduler: a thread with smaller fresh surplus is
// preferred. The machine uses this for wakeup preemption.
func (s *SFS) Less(a, b *sched.Thread) bool {
	return a.Phi*(a.Start-s.v) < b.Phi*(b.Start-s.v)
}

// PreemptRank implements sched.Preempter: t's surplus α_i = φ_i·(S_i − v)
// projected forward by ran of uncharged service. Charging ran advances S_i by
// ran/φ_i, so the projected surplus is the fresh surplus plus ran seconds —
// the projection is exact in float arithmetic and an advisory approximation
// in fixed-point mode (the comparison steers only preemption flags, never tag
// state, so decision traces stay bit-identical).
func (s *SFS) PreemptRank(t *sched.Thread, ran simtime.Duration) float64 {
	return t.Phi*(t.Start-s.v) + ran.Seconds()
}

// InterimCharge implements sched.InterimCharger by delegating to Charge:
// the tag advance ran/φ is linear in ran, so charging a slice in
// installments lands the tags where one boundary charge would have — this
// is the §2.3 variable-length-quanta property. In fixed-point mode each
// installment's division truncates separately, so a split slice can differ
// from an unsplit one by a few ulps of tag; the enforcer is only armed on
// live runtimes, never under the golden differential traces, so machine
// comparisons are unaffected.
func (s *SFS) InterimCharge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	s.Charge(t, ran, now)
}

// Threads returns the runnable threads in ascending start-tag order (tests
// and metrics; the sort is paid here, off the scheduling hot path).
func (s *SFS) Threads() []*sched.Thread {
	out := s.byStart.Slice()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// CheckInvariants validates the paper's structural invariants; tests call it
// after every operation in paranoia mode. The invariants: all three queues
// agree on membership and remain sorted; v equals the minimum start tag; all
// fresh surpluses are non-negative; at least one runnable thread has zero
// surplus (the thread holding the minimum start tag, §2.3); and in exact
// mode every stored surplus equals the recomputation against vRef.
func (s *SFS) CheckInvariants() error {
	if err := s.weights.Validate(); err != nil {
		return err
	}
	if err := s.byStart.Validate(); err != nil {
		return err
	}
	if err := s.bySurplus.Validate(); err != nil {
		return err
	}
	if s.weights.Len() != s.byStart.Len() || s.byStart.Len() != s.bySurplus.Len() {
		return fmt.Errorf("core: queue membership mismatch %d/%d/%d",
			s.weights.Len(), s.byStart.Len(), s.bySurplus.Len())
	}
	if s.byStart.Len() == 0 {
		return nil
	}
	head, _ := s.byStart.Min()
	if head.Start != s.v {
		return fmt.Errorf("core: v=%g but min start tag is %g", s.v, head.Start)
	}
	zero := false
	var err error
	s.byStart.Each(func(t *sched.Thread) bool {
		fresh := t.Phi * (t.Start - s.v)
		if fresh < 0 {
			err = fmt.Errorf("core: negative surplus %g for %v", fresh, t)
			return false
		}
		if fresh == 0 {
			zero = true
		}
		if s.k == 0 {
			var want float64
			if s.fixed {
				want = s.scale.Float(s.scale.MulValue(t.FxPhi, t.FxStart-s.fxVRef))
			} else {
				want = t.Phi * (t.Start - s.vRef)
			}
			if t.Surplus != want {
				err = fmt.Errorf("core: stored surplus %g for %v, want %g against vRef=%g",
					t.Surplus, t, want, s.vRef)
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}
	if !zero {
		return fmt.Errorf("core: no thread with zero surplus (v=%g)", s.v)
	}
	return nil
}

// recomputeV updates the virtual time and reports whether it changed. When
// no thread is runnable, v takes the finish tag of the thread that ran last
// (§2.3).
func (s *SFS) recomputeV() bool {
	var nv float64
	if head, ok := s.byStart.Min(); ok {
		nv = head.Start
		if s.fixed {
			s.fxV = head.FxStart
		}
	} else {
		nv = s.lastFinish
		if s.fixed {
			s.fxV = s.fxLastFinish
		}
	}
	if nv == s.v {
		return false
	}
	s.v = nv
	return true
}

// storeSurplus recomputes and stores t's surplus. Exact mode stores against
// the vRef epoch shared by the whole surplus queue; heuristic mode stores
// against the current v (the paper's kernel behaviour — entries go stale
// individually until the periodic refresh).
func (s *SFS) storeSurplus(t *sched.Thread) {
	ref, fxRef := s.v, s.fxV
	if s.k == 0 {
		ref, fxRef = s.vRef, s.fxVRef
	}
	if s.fixed {
		t.FxSurplus = s.scale.MulValue(t.FxPhi, t.FxStart-fxRef)
		t.Surplus = s.scale.Float(t.FxSurplus)
		return
	}
	t.Surplus = t.Phi * (t.Start - ref)
}

// refreshSurpluses snaps vRef to the current virtual time, recomputes every
// stored surplus and re-sorts the surplus queue with insertion sort (cheap
// on the mostly-sorted queue, §3.2). The refresh scan limit grows with √n so
// that the amortized refresh cost and the worst-case pick scan balance.
func (s *SFS) refreshSurpluses() {
	s.vRef, s.fxVRef = s.v, s.fxV
	s.needRefresh = false
	s.scanLimit = 32 + int(math.Sqrt(float64(s.byStart.Len())))
	s.byStart.Each(func(t *sched.Thread) bool {
		s.storeSurplus(t)
		return true
	})
	s.bySurplus.Init()
	s.stats.SurplusSweeps++
}

// rebaseTags shifts all tags by the minimum start tag and resets the virtual
// time, the paper's wraparound handling (§3.2). Differences between tags —
// the only inputs to scheduling decisions — are preserved, and since the
// vRef epoch shifts along with them, stored surpluses remain exact without a
// refresh. The shift is accumulated in fxShift and stamped on each runnable
// thread; threads asleep during the rebase are caught up on their next Add.
func (s *SFS) rebaseTags() {
	var base fixedpoint.Value
	if head, ok := s.byStart.Min(); ok {
		base = head.FxStart
	} else {
		// No runnable threads: the frame collapses to v = lastFinish = 0.
		base = s.fxLastFinish
	}
	s.fxShift += base
	s.byStart.Each(func(t *sched.Thread) bool {
		fixedpoint.Rebase(base, &t.FxStart, &t.FxFinish)
		t.FxShift = s.fxShift
		t.Start = s.scale.Float(t.FxStart)
		t.Finish = s.scale.Float(t.FxFinish)
		return true
	})
	fixedpoint.Rebase(base, &s.fxV, &s.fxLastFinish, &s.fxVRef)
	s.v = s.scale.Float(s.fxV)
	s.lastFinish = s.scale.Float(s.fxLastFinish)
	s.vRef = s.scale.Float(s.fxVRef)
	s.stats.Rebases++
}
