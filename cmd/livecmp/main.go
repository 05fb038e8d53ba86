// Command livecmp reprises the paper's cross-policy comparison (§4) on
// wall-clock hardware: the same weighted tier workload — compute-bound
// tenants with weights 4:3:2:1 — runs on the concurrent runtime under each
// requested scheduling policy, and the resulting shares are tabulated
// Figure-6(b)-style. The expected qualitative ordering is the paper's: SFS
// and SFQ divide the machine in proportion to the weights (weighted Jain
// index ≈ 1), Linux-style time sharing ignores them (weighted Jain ≪ 1).
//
//	go run ./cmd/livecmp [-policies sfs,sfq,timeshare] [-workers N] [-shards N]
//	                     [-per-tier 2] [-duration 1s] [-slice 25ms] [-preempt] [-v]
//	go run ./cmd/livecmp -latency [-hogs 8] [-policies sfs,bvt,timeshare]
//	                     [-enforce] [-adversarial] ...
//	go run ./cmd/livecmp -cluster [-machines 8] [-k 2] [-workers 16]
//	                     [-migrate-every 250ms] ...
//	go run ./cmd/livecmp -steal [-shards 8] [-ticks 400]
//
// Any policy sfsched.PolicyByName knows (sfs, sfq, sfq+readjust, timeshare,
// stride, bvt, lottery, hier) may appear in -policies; with -shards > 1 each
// policy runs behind per-CPU runqueues with background weight rebalancing,
// exercising the capability seam of internal/sched end to end.
//
// -latency switches from the fairness table to the Figure 6(c) reprise: an
// interactive tenant (short burst, think, repeat) competes with -hogs
// compute-bound tenants, and the table reports its wakeup→dispatch latency
// quantiles — measured by the runtime's own per-tenant histograms — under
// each policy with cooperative wakeup preemption armed and disarmed. The
// expected shape is the paper's: preemption collapses interactive p95 to the
// hogs' cooperative checkpoint granularity under SFS (and the other
// fair-queueing policies), while time sharing, which implements no preemption
// order, makes every wakeup wait out a running slice.
//
// -enforce arms involuntary slice enforcement (DESIGN.md §10) in -latency
// mode, and -adversarial switches the hogs to plain tasks that never poll a
// preemption flag — the workload cooperative preemption cannot touch. The
// pairing shows the enforcer's contribution: adversarial hogs starve the
// interactive tenant for whole slices unless -enforce hands their expired
// slices off to spare workers.
//
// -steal switches to the work-stealing ablation (DESIGN.md §12): every active
// tenant starts piled onto one shard while the remaining single-worker shards
// sit idle — the §1.2 imbalance partitioned scheduling is criticized for —
// and the table compares, in deterministic lockstep, how each recovery
// mechanism closes it: idle-path stealing recovers within the first tick, the
// periodic rebalancer only at its next pass, and a runtime with neither stays
// pinned at one busy worker for the whole run.
//
// -cluster switches to the cluster tier (DESIGN.md §11): the weighted tiers
// are spread over -machines independent runtimes by power-of-k-choices
// placement, a background migrator equalizes weight density across machines,
// and the tables report per-machine shares plus the cluster-wide weighted
// Jain index — which should stay ≈ 1 under the fair-queueing policies even
// though no machine ever sees the whole tenant population.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"sfsched"
	"sfsched/internal/experiments"
	"sfsched/internal/metrics"
	"sfsched/internal/rt"
)

func main() {
	policies := flag.String("policies", "sfs,sfq,timeshare",
		"comma-separated policies to compare: "+strings.Join(sfsched.LivePolicies(), ", "))
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	shards := flag.Int("shards", 0, "dispatch shards per run (0 = 1, the central runqueue)")
	perTier := flag.Int("per-tier", 2, "tenants per weight tier (tiers 4:3:2:1)")
	duration := flag.Duration("duration", time.Second, "load duration per policy")
	slice := flag.Duration("slice", 25*time.Millisecond,
		"per-dispatch CPU burn cap (sub-tick caps are safe under timeshare too: fractional-tick remainders carry)")
	verbose := flag.Bool("v", false, "also print per-tenant share tables")
	latency := flag.Bool("latency", false,
		"run the Figure 6(c) latency reprise (interactive vs hogs) instead of the fairness table")
	hogs := flag.Int("hogs", 8, "background compute-bound tenants in -latency mode")
	grant := flag.Duration("grant", time.Millisecond,
		"hog cooperative preemption-check granularity in -latency mode")
	preempt := flag.Bool("preempt", false,
		"arm cooperative wakeup preemption in the fairness runs (the tasks then yield at millisecond checkpoints when flagged; -latency mode always tabulates both arms)")
	enforce := flag.Bool("enforce", false,
		"arm involuntary slice enforcement in -latency mode: the enforcer interim-charges in-flight slices and hands off expired ones")
	adversarial := flag.Bool("adversarial", false,
		"submit -latency hogs as plain tasks that never poll preemption flags — the workload only -enforce can bound")
	clusterMode := flag.Bool("cluster", false,
		"run the cluster tier demo instead of the single-runtime table: -machines runtimes behind "+
			"power-of-k placement and surplus-driven migration, with per-machine shares and the cluster Jain index")
	machinesN := flag.Int("machines", 8, "machines in -cluster mode")
	kChoices := flag.Int("k", 2, "placement probes per registration in -cluster mode (power-of-k-choices)")
	migrateEvery := flag.Duration("migrate-every", 0,
		"background migrator period in -cluster mode (0 = cluster default, negative = placement only)")
	stealMode := flag.Bool("steal", false,
		"run the work-stealing ablation instead: all actives piled on one shard, recovery via stealing vs the rebalancer vs neither")
	stealTicks := flag.Int("ticks", 0, "lockstep ticks in -steal mode (0 = 400)")
	flag.Parse()

	if *stealMode {
		// -shards 0 falls through to the ablation default (8).
		cfg := experiments.StealAblationConfig{Shards: *shards, Ticks: *stealTicks}
		fmt.Printf("livecmp: steal ablation — actives piled on shard 0, one worker per shard\n")
		fmt.Print(experiments.StealAblationTable(experiments.StealAblation(cfg)))
		return
	}

	cfg := experiments.LiveConfig{
		Workers:  *workers,
		Shards:   *shards,
		PerTier:  *perTier,
		Duration: *duration,
		SliceCap: *slice,
		Preempt:  *preempt,
	}
	var names []string
	var factories []rt.Policy
	for _, name := range strings.Split(*policies, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := sfsched.PolicyByName(name, 10*sfsched.Millisecond)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		names = append(names, name)
		factories = append(factories, p)
	}
	if len(factories) == 0 {
		fmt.Fprintln(os.Stderr, "livecmp: no policies requested")
		os.Exit(2)
	}
	if *clusterMode {
		// -per-tier defaults to 2 for the single-runtime table; the cluster
		// sizes its own default (2x the worker slots) unless the flag was
		// given explicitly.
		clusterPerTier := 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "per-tier" {
				clusterPerTier = *perTier
			}
		})
		fmt.Printf("livecmp: cluster of %d machines (k=%d placement), %s for %v each (weighted tiers 4:3:2:1)\n",
			*machinesN, *kChoices, strings.Join(names, " vs "), *duration)
		var results []experiments.LiveClusterResult
		for _, p := range factories {
			res := experiments.RunLiveCluster(p, experiments.LiveClusterConfig{
				Machines:     *machinesN,
				K:            *kChoices,
				Workers:      *workers,
				PerTier:      clusterPerTier,
				Duration:     *duration,
				SliceCap:     *slice,
				MigrateEvery: *migrateEvery,
			})
			results = append(results, res)
			fmt.Printf("\n%s per-machine shares:\n", res.Policy)
			fmt.Print(experiments.ClusterMachineTable(res))
			if *verbose {
				tbl := &metrics.Table{Headers: []string{"tenant", "weight", "machine", "cpu_ms", "share", "ideal"}}
				for _, tn := range res.Tenants {
					tbl.AddRow(tn.Name,
						fmt.Sprintf("%g", tn.Weight),
						fmt.Sprintf("%d", tn.Machine),
						fmt.Sprintf("%.1f", float64(tn.Service.Microseconds())/1000),
						fmt.Sprintf("%.3f", tn.Share),
						fmt.Sprintf("%.3f", tn.Ideal))
				}
				fmt.Print(tbl.String())
			}
			fmt.Printf("cluster jain %.4f, worst share error %.1f%%, %d migrations\n",
				res.Jain, 100*res.WorstErr, res.Migrations)
		}
		fmt.Println()
		fmt.Print(experiments.ClusterFairnessTable(results))
		return
	}
	poolSize := *workers
	if poolSize <= 0 {
		poolSize = runtime.GOMAXPROCS(0)
	}
	if *shards > poolSize {
		fmt.Fprintf(os.Stderr, "livecmp: -shards %d needs at least as many workers, got %d\n", *shards, poolSize)
		os.Exit(2)
	}
	if *latency {
		mode := ""
		if *enforce {
			mode += ", enforcement armed"
		}
		if *adversarial {
			mode += ", adversarial hogs"
		}
		fmt.Printf("livecmp: interactive latency vs %d hogs, %s for %v per cell (preempt on/off%s)\n",
			*hogs, strings.Join(names, " vs "), *duration, mode)
		results := experiments.CrossPolicyLiveLatency(factories, experiments.LiveLatencyConfig{
			Workers:     *workers,
			Shards:      *shards,
			Hogs:        *hogs,
			Duration:    *duration,
			Grant:       *grant,
			SliceCap:    *slice,
			Enforce:     *enforce,
			Adversarial: *adversarial,
		})
		fmt.Print(experiments.LatencyTable(results))
		return
	}
	mode := ""
	if *preempt {
		mode = ", wakeup preemption armed"
	}
	fmt.Printf("livecmp: %s for %v each (weighted tiers 4:3:2:1 x %d%s)\n",
		strings.Join(names, " vs "), *duration, *perTier, mode)
	results := experiments.CrossPolicyLive(factories, cfg)
	if *verbose {
		for _, res := range results {
			fmt.Printf("\n%s:\n", res.Policy)
			tbl := &metrics.Table{Headers: []string{"tenant", "weight", "shard", "cpu_ms", "share", "ideal"}}
			for _, tn := range res.Tenants {
				tbl.AddRow(tn.Name,
					fmt.Sprintf("%g", tn.Weight),
					fmt.Sprintf("%d", tn.Shard),
					fmt.Sprintf("%.1f", float64(tn.Service.Microseconds())/1000),
					fmt.Sprintf("%.3f", tn.Share),
					fmt.Sprintf("%.3f", tn.Ideal))
			}
			fmt.Print(tbl.String())
		}
		fmt.Println()
	}
	fmt.Print(experiments.FairnessTable(results))
}
