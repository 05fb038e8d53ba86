package experiments

import (
	"strings"
	"testing"
	"time"

	"sfsched/internal/core"
	"sfsched/internal/rt"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/timeshare"
)

// TestRunLiveLatencySmoke drives the wall-clock Figure 6(c) workload briefly
// under SFS with preemption armed: the interactive tenant must record wakes
// through the runtime's histogram and the hogs must take preemption flags.
// Quantile magnitudes are asserted only loosely — CI machines vary — the
// deterministic bounds live in internal/rt/preempt_test.go.
func TestRunLiveLatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock spin workload skipped in -short mode")
	}
	policy := func(cpus int) sched.Scheduler {
		return core.New(cpus, core.WithQuantum(10*simtime.Millisecond))
	}
	res := RunLiveLatency(policy, LiveConfig{
		Workers:  2,
		Hogs:     3,
		Duration: 300 * time.Millisecond,
		Grant:    500 * time.Microsecond,
		SliceCap: 5 * time.Millisecond,
		Preempt:  true,
	})
	if res.Policy != "SFS" {
		t.Errorf("policy %q, want SFS", res.Policy)
	}
	if !res.Preempt || res.Hogs != 3 {
		t.Errorf("config echo wrong: %+v", res)
	}
	if res.Wake.Count == 0 {
		t.Error("interactive tenant recorded no wakes")
	}
	if res.Preemptions == 0 {
		t.Error("no preemption flags raised despite full load and Preempter policy")
	}
	if w := res.Wake; w.P95 < w.P50 || w.Max < w.P95 {
		t.Errorf("quantiles not ordered: p50 %v, p95 %v, max %v", w.P50, w.P95, w.Max)
	}
}

// TestLatencyTable pins the renderer on synthetic results.
func TestLatencyTable(t *testing.T) {
	out := LatencyTable([]LiveLatencyResult{
		{Policy: "SFS", Preempt: true, Enforce: true, Hogs: 8,
			Wake: rt.LatencyStat{Count: 100, P50: simtime.Millisecond, P95: 2 * simtime.Millisecond,
				P99: 3 * simtime.Millisecond, Max: 4 * simtime.Millisecond},
			Preemptions: 42, Handoffs: 7},
		{Policy: "timeshare", Preempt: false, Hogs: 8,
			Wake: rt.LatencyStat{Count: 20, P50: 90 * simtime.Millisecond, P95: 180 * simtime.Millisecond,
				P99: 190 * simtime.Millisecond, Max: 200 * simtime.Millisecond}},
	})
	for _, want := range []string{"SFS", "timeshare", "on", "off", "2.00", "180.00", "42", "p95_ms", "enforce", "handoffs", "7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestRunLiveLatencyTimeshareSubTick is the live regression for the timeshare
// sub-tick accounting hole: with a SliceCap below one 10 ms tick, every hog
// chunk used to be invisible to tick-sampled accounting — hog counters never
// decayed, epochs never turned, and the woken interactive tenant lost every
// goodness tie for the life of the run (this test hung before the
// fractional-tick remainder carry). With the carry, hog goodness decays at
// the hogs' true CPU rate and the interactive tenant's wakes go through.
func TestRunLiveLatencyTimeshareSubTick(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock spin workload skipped in -short mode")
	}
	policy := func(cpus int) sched.Scheduler { return timeshare.New(cpus) }
	res := RunLiveLatency(policy, LiveConfig{
		Workers:  2,
		Hogs:     3,
		Duration: 300 * time.Millisecond,
		Grant:    500 * time.Microsecond,
		SliceCap: 5 * time.Millisecond, // below the 10 ms tick: the hole
		Preempt:  false,                // timeshare has no preemption order
	})
	if res.Policy != "timeshare" {
		t.Errorf("policy %q, want timeshare", res.Policy)
	}
	if res.Wake.Count == 0 {
		t.Error("interactive tenant starved: no wakes recorded")
	}
	if w := res.Wake; w.P95 < w.P50 || w.Max < w.P95 {
		t.Errorf("quantiles not ordered: p50 %v, p95 %v, max %v", w.P50, w.P95, w.Max)
	}
}
