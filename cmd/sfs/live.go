package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"sfsched"
	"sfsched/internal/experiments"
	"sfsched/internal/rt"
)

// live runs one wall-clock mode of the comparison under each requested
// policy.
func live(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var cfg experiments.LiveConfig
	policies := fs.String("policies", "sfs,sfq,timeshare", "comma-separated policies: "+strings.Join(sfsched.LivePolicies(), ", "))
	fs.IntVar(&cfg.Workers, "workers", 0, "worker pool size per runtime (0 = GOMAXPROCS; cluster: 16)")
	fs.IntVar(&cfg.Shards, "shards", 0, "dispatch shards per runtime (0 = 1, the central runqueue; steal: 8)")
	fs.IntVar(&cfg.PerTier, "per-tier", 0, "tenants per weight tier (0 = 2; cluster: twice the worker slots)")
	fs.DurationVar(&cfg.Duration, "duration", time.Second, "load duration per policy")
	fs.DurationVar(&cfg.SliceCap, "slice", 25*time.Millisecond, "per-dispatch CPU burn cap (0 = 25ms)")
	verbose := fs.Bool("v", false, "fair, cluster: also print per-tenant share tables")
	fs.BoolVar(&cfg.Preempt, "preempt", false, "fair: arm cooperative wakeup preemption (latency runs both arms)")
	fs.IntVar(&cfg.Hogs, "hogs", 8, "latency: background compute-bound tenants (0 = 8)")
	fs.DurationVar(&cfg.Grant, "grant", time.Millisecond, "latency: hogs' preemption-check granularity (0 = 1ms)")
	fs.BoolVar(&cfg.Enforce, "enforce", false, "latency: arm involuntary slice enforcement")
	fs.BoolVar(&cfg.Adversarial, "adversarial", false, "latency: hogs never poll preemption flags; only -enforce bounds them")
	fs.IntVar(&cfg.Machines, "machines", 8, "cluster: machines (0 = 8)")
	fs.IntVar(&cfg.K, "k", 2, "cluster: placement probes per registration, power-of-k-choices (0 = 2)")
	fs.DurationVar(&cfg.MigrateEvery, "migrate-every", 0, "cluster: migrator period (0 = cluster default, negative = placement only)")
	ticks := fs.Int("ticks", 0, "steal: lockstep ticks (0 = 400)")
	mode, err := parse(fs, args, "fair", "fair", "latency", "cluster", "steal")
	if err != nil {
		return err
	}
	pool := cmp.Or(cfg.Workers, runtime.GOMAXPROCS(0))
	if err := check(
		rule{cfg.Duration > 0, fmt.Sprintf("-duration must be positive, got %v", cfg.Duration)},
		rule{cfg.SliceCap >= 0, fmt.Sprintf("-slice must not be negative, got %v", cfg.SliceCap)},
		rule{cfg.Grant >= 0, fmt.Sprintf("-grant must not be negative, got %v", cfg.Grant)},
		atLeast("workers", cfg.Workers, 0), atLeast("shards", cfg.Shards, 0), atLeast("per-tier", cfg.PerTier, 0),
		atLeast("hogs", cfg.Hogs, 0), atLeast("machines", cfg.Machines, 0), atLeast("k", cfg.K, 0),
		atLeast("ticks", *ticks, 0),
		rule{mode == "cluster" || mode == "steal" || cfg.Shards <= pool,
			fmt.Sprintf("-shards %d needs at least as many workers, got %d", cfg.Shards, pool)},
	); err != nil {
		return err
	}
	if mode == "steal" {
		fmt.Fprintln(stdout, "sfs: steal ablation — actives piled on shard 0, one worker per shard")
		cells := experiments.StealAblation(experiments.StealAblationConfig{Shards: cfg.Shards, Ticks: *ticks})
		fmt.Fprint(stdout, experiments.StealAblationTable(cells))
		return nil
	}
	var names []string
	var factories []rt.Policy
	for _, name := range strings.Split(*policies, ",") {
		if name = strings.TrimSpace(name); name != "" {
			p, err := sfsched.PolicyByName(name, 10*sfsched.Millisecond)
			if err != nil {
				return usageError(err.Error())
			}
			names, factories = append(names, name), append(factories, p)
		}
	}
	if len(factories) == 0 {
		return usageError("-policies names no policy")
	}
	compared := strings.Join(names, " vs ")
	var results []experiments.LiveResult
	switch mode {
	case "latency":
		fmt.Fprintf(stdout, "sfs: interactive latency vs %d hogs, %s for %v per cell (preempt on/off%s%s)\n",
			cfg.Hogs, compared, cfg.Duration, when(cfg.Enforce, ", enforcement armed"), when(cfg.Adversarial, ", adversarial hogs"))
		var cells []experiments.LiveLatencyResult
		for _, p := range factories {
			for _, on := range []bool{true, false} {
				cfg.Preempt = on
				cells = append(cells, experiments.RunLiveLatency(p, cfg))
			}
		}
		fmt.Fprint(stdout, experiments.LatencyTable(cells))
		return nil
	case "cluster":
		fmt.Fprintf(stdout, "sfs: cluster of %d machines (k=%d placement), %s for %v each (weighted tiers 4:3:2:1)\n",
			cfg.Machines, cfg.K, compared, cfg.Duration)
		for _, p := range factories {
			res := experiments.RunLiveCluster(p, cfg)
			results = append(results, res)
			fmt.Fprintf(stdout, "\n%s per-machine shares:\n%s", res.Policy, experiments.MachineTable(res))
			if *verbose {
				fmt.Fprint(stdout, experiments.TenantTable(res))
			}
			fmt.Fprintf(stdout, "cluster jain %.4f, worst share error %.1f%%, %d migrations\n",
				res.Jain, 100*res.WorstErr, res.Migrations)
		}
		fmt.Fprintln(stdout)
	default:
		fmt.Fprintf(stdout, "sfs: %s for %v each (weighted tiers 4:3:2:1 x %d%s)\n", compared, cfg.Duration,
			cmp.Or(cfg.PerTier, 2), when(cfg.Preempt, ", wakeup preemption armed"))
		for _, p := range factories {
			res := experiments.RunLive(p, cfg)
			results = append(results, res)
			if *verbose {
				fmt.Fprintf(stdout, "\n%s:\n%s", res.Policy, experiments.TenantTable(res))
			}
		}
		fmt.Fprint(stdout, when(*verbose, "\n"))
	}
	fmt.Fprint(stdout, experiments.FairnessTable(results))
	return nil
}

// when returns s if cond holds, else "".
func when(cond bool, s string) string {
	if cond {
		return s
	}
	return ""
}
