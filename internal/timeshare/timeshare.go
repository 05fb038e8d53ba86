// Package timeshare implements a Linux 2.2-style time-sharing scheduler, the
// second baseline of the paper's evaluation (§4).
//
// The model follows the 2.2 kernel's schedule()/goodness() design:
//
//   - Each thread has a static priority (default 20 ticks, the 2.2 default
//     for nice 0) and a counter of remaining timeslice ticks.
//   - A running thread's counter is decremented once per 10 ms timer tick.
//   - schedule() scans the run queue and picks the runnable thread with the
//     greatest goodness, where goodness = counter + priority for threads with
//     timeslice left and 0 otherwise.
//   - When every runnable thread has exhausted its counter, a new epoch
//     begins: every thread in the system — including blocked ones — has its
//     counter recharged to counter/2 + priority. Sleepers therefore
//     accumulate up to 2×priority, which is exactly the implicit I/O boost
//     that gives Linux its good interactive response (Figure 6(c)).
//
// Weights are ignored: time sharing has no notion of proportional shares,
// which is what Figure 6(b) demonstrates. SetWeight records the weight (so
// metrics can report requested shares) but does not affect scheduling.
package timeshare

import (
	"fmt"

	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

// Tick is the timer tick used for counter accounting (Linux 2.2 on x86 used
// 10 ms jiffies).
const Tick = 10 * simtime.Millisecond

// DefaultPriority is the counter recharge in ticks for a default-nice
// thread; 20 ticks × 10 ms ≈ the 2.2 default timeslice (and close to the
// paper's 200 ms maximum quantum).
const DefaultPriority = 20

// TS is a Linux 2.2-style time-sharing scheduler. Not safe for concurrent
// use.
type TS struct {
	p        int
	runnable []*sched.Thread
	// known holds every thread that has ever been added and has not
	// exited; epoch recharge touches blocked threads too.
	known     map[*sched.Thread]struct{}
	epochs    int64
	decisions int64
	scanned   int64
}

// New returns a time-sharing scheduler for p processors. It panics if p < 1.
func New(p int) *TS {
	if p < 1 {
		panic(fmt.Sprintf("timeshare: invalid processor count %d", p))
	}
	return &TS{p: p, known: make(map[*sched.Thread]struct{})}
}

// Name implements sched.Scheduler.
func (s *TS) Name() string { return "timeshare" }

// NumCPU implements sched.Scheduler.
func (s *TS) NumCPU() int { return s.p }

// Runnable implements sched.Scheduler.
func (s *TS) Runnable() int { return len(s.runnable) }

// Epochs returns the number of counter-recharge epochs so far.
func (s *TS) Epochs() int64 { return s.epochs }

// Scanned returns how many threads Pick has examined so far: the length of
// the O(n) schedule() scan, summed over every pick.
func (s *TS) Scanned() int64 { return s.scanned }

// goodness mirrors the 2.2 kernel: threads with timeslice left compete on
// counter + priority; exhausted threads wait for the next epoch.
func goodness(t *sched.Thread) int {
	if t.Counter <= 0 {
		return 0
	}
	return t.Counter + t.Priority
}

// Add implements sched.Scheduler.
func (s *TS) Add(t *sched.Thread, now simtime.Time) error {
	if !sched.ValidWeight(t.Weight) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, t.Weight)
	}
	for _, r := range s.runnable {
		if r == t {
			return fmt.Errorf("%w: %v", sched.ErrAlreadyManaged, t)
		}
	}
	if t.Priority <= 0 {
		t.Priority = DefaultPriority
	}
	if _, seen := s.known[t]; !seen {
		t.Counter = t.Priority
		t.TickRem = 0
		s.known[t] = struct{}{}
	}
	t.Phi = t.Weight
	s.runnable = append(s.runnable, t)
	return nil
}

// Remove implements sched.Scheduler: blocked threads stay known (their
// counters recharge at epochs); exited threads are forgotten.
func (s *TS) Remove(t *sched.Thread, now simtime.Time) error {
	for i, r := range s.runnable {
		if r == t {
			s.runnable = append(s.runnable[:i], s.runnable[i+1:]...)
			if t.State == sched.Exited {
				delete(s.known, t)
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %v", sched.ErrNotManaged, t)
}

// Charge implements sched.Scheduler: one counter tick is consumed per full
// Tick of CPU used, with the sub-tick remainder carried in t.TickRem. A
// single burst shorter than a tick still costs nothing immediately — the
// kernel's tick granularity, and its bias toward genuinely I/O-bound
// threads, is preserved — but repeated sub-tick bursts accumulate and are
// charged once the carry crosses a tick boundary. Without the carry, a
// compute-bound thread whose slices are always cut below one tick (a short
// SliceCap, or involuntary enforcement at a sub-tick cadence) would never
// consume counter: its goodness never decays, epochs never turn, and woken
// threads of equal goodness starve behind it indefinitely — an accounting
// exploit, not the 2.2 semantics this package models.
func (s *TS) Charge(t *sched.Thread, ran simtime.Duration, now simtime.Time) {
	if ran < 0 {
		panic("timeshare: negative charge")
	}
	t.Service += ran
	total := t.TickRem + ran
	t.Counter -= int(total / Tick)
	t.TickRem = total % Tick
	if t.Counter < 0 {
		t.Counter = 0
	}
}

// Timeslice implements sched.Scheduler: a thread runs until its counter is
// exhausted (or it blocks).
func (s *TS) Timeslice(t *sched.Thread, now simtime.Time) simtime.Duration {
	if t.Counter <= 0 {
		return Tick // shouldn't happen: Pick recharges first
	}
	return simtime.Duration(t.Counter) * Tick
}

// SetWeight implements sched.Scheduler; time sharing has no proportional
// shares, so the weight is recorded but does not affect scheduling.
func (s *TS) SetWeight(t *sched.Thread, w float64, now simtime.Time) error {
	if !sched.ValidWeight(w) {
		return fmt.Errorf("%w: %g", sched.ErrBadWeight, w)
	}
	t.Weight = w
	t.Phi = w
	return nil
}

// Pick implements sched.Scheduler: the schedule() scan. If every runnable
// thread (including currently running ones) has exhausted its counter, a new
// epoch recharges all known threads first.
func (s *TS) Pick(cpu int, now simtime.Time) *sched.Thread {
	if len(s.runnable) == 0 {
		return nil
	}
	if s.allExhausted() {
		s.recharge()
	}
	var best *sched.Thread
	bestG := 0
	s.scanned += int64(len(s.runnable))
	for _, t := range s.runnable {
		if t.Running() {
			continue
		}
		if g := goodness(t); g > bestG || (g == bestG && best == nil) {
			// g == 0 candidates are picked only when nothing has
			// timeslice left; keep the first as fallback so the
			// scheduler remains work-conserving mid-epoch.
			best = t
			bestG = g
		}
	}
	if best != nil {
		s.decisions++
		best.Decisions++
	}
	return best
}

// Less implements sched.Scheduler: higher goodness is preferred; the machine
// uses it for wakeup preemption (the 2.2 reschedule_idle path).
func (s *TS) Less(a, b *sched.Thread) bool { return goodness(a) > goodness(b) }

// Threads returns the runnable threads (unordered run-queue copy).
func (s *TS) Threads() []*sched.Thread {
	return append([]*sched.Thread(nil), s.runnable...)
}

func (s *TS) allExhausted() bool {
	for _, t := range s.runnable {
		if t.Counter > 0 {
			return false
		}
	}
	return true
}

// recharge begins a new epoch: counter = counter/2 + priority for every
// known thread, runnable or blocked.
func (s *TS) recharge() {
	s.epochs++
	for t := range s.known {
		t.Counter = t.Counter/2 + t.Priority
	}
}
