// Steal ablation: the §1.2 imbalance as a controlled experiment. Partitioned
// scheduling leaves processors idle beside a backlogged neighbour between
// rebalancing passes, and so does the sharded runtime. This experiment
// piles every active tenant on one shard and measures, in deterministic
// Manual lockstep, how idle-path stealing, the periodic rebalancer and
// neither close the gap.
package experiments

import (
	"fmt"

	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// Steal-ablation cell modes: which recovery mechanism the run arms.
const (
	StealModeNeither   = "neither"    // no stealing, no rebalancing: the imbalance persists
	StealModeRebalance = "rebalancer" // periodic surplus-driven rebalancing only
	StealModeSteal     = "steal"      // idle-path work stealing only
)

// StealAblationConfig parameterizes the imbalance scenario: Shards
// always-backlogged tenants start on shard 0 of Shards single-worker shards,
// so busy shards and busy workers coincide and utilization reads directly as
// the fraction of the machine doing work. Each dispatch runs a 5 ms slice.
type StealAblationConfig struct {
	Shards         int // shards, workers and active tenants (0 = 8)
	Ticks          int // lockstep ticks (0 = 400)
	RebalanceEvery int // the rebalancer cell's period in ticks (0 = 50)
}

// StealAblationResult is one cell's outcome: the first tick on which every
// worker dispatched (-1 if none), the mean fraction of workers dispatching
// per tick, the tasks completed, and the actives' Jain index at the end.
type StealAblationResult struct {
	Mode               string
	RecoveryTick       int
	Utilization        float64
	Completed          int
	Jain               float64
	Steals, Migrations int64
}

// StealAblation runs the three cells — neither, rebalancer-only,
// steal-only — on the identical deterministic workload.
func StealAblation(cfg StealAblationConfig) []StealAblationResult {
	cfg.Shards = orDefault(cfg.Shards, 8)
	cfg.Ticks = orDefault(cfg.Ticks, 400)
	cfg.RebalanceEvery = orDefault(cfg.RebalanceEvery, 50)
	return []StealAblationResult{
		stealCell(cfg, StealModeNeither),
		stealCell(cfg, StealModeRebalance),
		stealCell(cfg, StealModeSteal),
	}
}

// stealCell builds the pile-up and drives the runtime in Manual lockstep.
// Least-loaded placement breaks ties toward shard 0, so each active lands
// there while ballast tenants re-level the other shards; unregistering the
// ballast then leaves every active, and the whole weight imbalance, on
// shard 0.
func stealCell(cfg StealAblationConfig, mode string) StealAblationResult {
	const slice = 5 * simtime.Millisecond
	clock := rt.NewFakeClock()
	r := rt.New(rt.Config{Workers: cfg.Shards, Shards: cfg.Shards, Quantum: 2 * slice, Clock: clock,
		QueueCap: 4, Manual: true, Steal: mode == StealModeSteal})
	defer r.Close()
	var actives, ballast []*rt.Tenant
	for round := 0; round < cfg.Shards; round++ {
		tn := must(r.Register(fmt.Sprintf("active-%d", round), 1))
		if tn.Shard() != 0 {
			panic(fmt.Sprintf("experiments: active %d placed on shard %d, want 0", round, tn.Shard()))
		}
		actives = append(actives, tn)
		for i := 1; i < cfg.Shards; i++ {
			ballast = append(ballast, must(r.Register("ballast", 1)))
		}
	}
	for _, tn := range ballast {
		mustOK(r.Unregister(tn))
	}
	refill := func() {
		for _, tn := range actives {
			for tn.Queued() < 2 {
				mustOK(tn.SubmitTask(rt.Once(func() {}), rt.NoWait()))
			}
		}
	}
	refill()
	res := StealAblationResult{Mode: mode, RecoveryTick: -1}
	ds := make([]*rt.Dispatched, 0, cfg.Shards)
	for tick := 0; tick < cfg.Ticks; tick++ {
		ds = ds[:0]
		for w := 0; w < cfg.Shards; w++ {
			d := r.Dispatch(w)
			if d == nil && mode == StealModeSteal && r.TrySteal(w) {
				d = r.Dispatch(w)
			}
			if d != nil {
				ds = append(ds, d)
			}
		}
		clock.Advance(slice)
		for _, d := range ds {
			d.Complete(true)
		}
		res.Completed += len(ds)
		if res.RecoveryTick < 0 && len(ds) == cfg.Shards {
			res.RecoveryTick = tick
		}
		refill()
		if mode == StealModeRebalance && (tick+1)%cfg.RebalanceEvery == 0 {
			r.Rebalance()
		}
	}
	res.Utilization = float64(res.Completed) / float64(cfg.Ticks*cfg.Shards)
	res.Jain, res.Steals, res.Migrations = r.JainIndex(), r.Steals(), r.Migrations()
	return res
}

// StealAblationTable renders the three cells side by side.
func StealAblationTable(results []StealAblationResult) string {
	tbl := &metrics.Table{
		Headers: []string{"mode", "recovery_tick", "utilization", "completed", "jain", "steals", "migrations"},
	}
	for _, res := range results {
		recovery := fmt.Sprint(res.RecoveryTick)
		if res.RecoveryTick < 0 {
			recovery = "never"
		}
		tbl.AddRow(res.Mode, recovery, fmt.Sprintf("%.3f", res.Utilization), fmt.Sprint(res.Completed),
			fmt.Sprintf("%.4f", res.Jain), fmt.Sprint(res.Steals), fmt.Sprint(res.Migrations))
	}
	return tbl.String()
}
