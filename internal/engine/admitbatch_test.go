package engine_test

// TestAdmitBatchEquivalence locks in AdmitBatch's contract: admitting a
// wakeup batch leaves the scheduler in exactly the state N sequential Adds
// would have, across SFS's exact, fixed-point and heuristic variants. Two
// schedulers replay an identical pre-history (admissions, pick/charge
// cycles, blocks), then one admits the wakeup batch thread by thread while
// the other goes through engine.AdmitBatch; every per-thread tag and the
// subsequent pick sequence must match.

import (
	"testing"

	"sfsched/internal/core"
	"sfsched/internal/engine"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
)

func TestAdmitBatchEquivalence(t *testing.T) {
	variants := []struct {
		name string
		opts []core.Option
	}{
		{"exact", nil},
		{"fixed", []core.Option{core.WithFixedPoint(4)}},
		{"heuristic", []core.Option{core.WithHeuristic(20)}},
		{"heuristic_fixed", []core.Option{core.WithHeuristic(20), core.WithFixedPoint(4)}},
	}
	// Weights spread over two orders of magnitude so the batch admission
	// triggers Figure-2 readjustment (φ != w) on the high-weight threads.
	weights := []float64{1, 40, 3, 1, 25, 2, 10, 1, 60, 5, 1, 8}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			const p = 2
			q := 10 * simtime.Millisecond
			seq := core.New(p, v.opts...) // admits the batch with N Adds
			bat := core.New(p, v.opts...) // admits the batch with one AdmitBatch
			mk := func(i int) [2]*sched.Thread {
				return [2]*sched.Thread{newThread(i, weights[i]), newThread(i, weights[i])}
			}
			threads := make([][2]*sched.Thread, len(weights))
			for i := range threads {
				threads[i] = mk(i)
			}

			now := simtime.Time(0)
			// step drives both schedulers through one synchronized quantum
			// and fails if their pick sequences ever diverge.
			step := func() {
				var ran [][2]*sched.Thread
				for c := 0; c < p; c++ {
					a := seq.Pick(c, now)
					b := bat.Pick(c, now)
					switch {
					case a == nil && b == nil:
						continue
					case a == nil || b == nil || a.ID != b.ID:
						t.Fatalf("pick diverged at %v cpu %d: seq=%v bat=%v", now, c, a, b)
					}
					a.CPU, b.CPU = c, c
					ran = append(ran, [2]*sched.Thread{a, b})
				}
				now = now.Add(q)
				for _, pair := range ran {
					seq.Charge(pair[0], q, now)
					bat.Charge(pair[1], q, now)
					for _, th := range pair {
						th.LastCPU = th.CPU
						th.CPU = sched.NoCPU
					}
				}
			}
			add := func(i int) {
				if err := seq.Add(threads[i][0], now); err != nil {
					t.Fatal(err)
				}
				if err := bat.Add(threads[i][1], now); err != nil {
					t.Fatal(err)
				}
			}
			remove := func(i int) {
				if err := seq.Remove(threads[i][0], now); err != nil {
					t.Fatal(err)
				}
				if err := bat.Remove(threads[i][1], now); err != nil {
					t.Fatal(err)
				}
			}

			// Pre-history: admit 0..7, run, block 2 and 5 (2 with service
			// behind it so its wakeup takes S = F; 5 early enough that the
			// advancing v overtakes it and its wakeup takes S = v), run on.
			for i := 0; i < 8; i++ {
				add(i)
			}
			for k := 0; k < 30; k++ {
				step()
			}
			remove(5)
			for k := 0; k < 30; k++ {
				step()
			}
			remove(2)
			for k := 0; k < 40; k++ {
				step()
			}

			// The wakeup batch: two re-admissions plus four fresh threads,
			// including weight 60 — heavy enough to re-trigger readjustment.
			batch := []int{2, 5, 8, 9, 10, 11}
			for _, i := range batch {
				if err := seq.Add(threads[i][0], now); err != nil {
					t.Fatal(err)
				}
			}
			bs := make([]*sched.Thread, len(batch))
			for j, i := range batch {
				bs[j] = threads[i][1]
			}
			if err := engine.New(bat).AdmitBatch(bs, now); err != nil {
				t.Fatal(err)
			}

			// Post-batch state must match field for field...
			for i := range threads {
				a, b := threads[i][0], threads[i][1]
				if a.Start != b.Start || a.Finish != b.Finish ||
					a.Phi != b.Phi || a.Surplus != b.Surplus ||
					a.FxStart != b.FxStart || a.FxFinish != b.FxFinish ||
					a.FxSurplus != b.FxSurplus || a.FxShift != b.FxShift {
					t.Fatalf("thread %d diverged after batch:\n seq: S=%g F=%g φ=%g α=%g fx=(%d,%d,%d,%d)\n bat: S=%g F=%g φ=%g α=%g fx=(%d,%d,%d,%d)",
						i,
						a.Start, a.Finish, a.Phi, a.Surplus, a.FxStart, a.FxFinish, a.FxSurplus, a.FxShift,
						b.Start, b.Finish, b.Phi, b.Surplus, b.FxStart, b.FxFinish, b.FxSurplus, b.FxShift)
				}
			}
			// ...and so must everything the tags feed: the pick order from
			// here on, and both schedulers' internal invariants.
			for k := 0; k < 60; k++ {
				step()
			}
			if err := seq.CheckInvariants(); err != nil {
				t.Fatalf("sequential scheduler: %v", err)
			}
			if err := bat.CheckInvariants(); err != nil {
				t.Fatalf("batch scheduler: %v", err)
			}
		})
	}
}
