package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"sfsched/internal/core"
	"sfsched/internal/machine"
	"sfsched/internal/simtime"
	"sfsched/internal/workload"
)

// sim-paper: exact SFS on the event-driven simulator, the only workload
// through internal/machine's event heap. Its simulated statistics repeat
// exactly for a seed, so it is the deterministic control for core and engine
// changes; only host time varies.
const (
	simCPUs     = 4
	simTasks    = 256
	simWeights  = 8
	simQuantum  = simtime.Millisecond
	simDuration = 20 * simtime.Second
	// simSeeds is how many distinct simulations one run pools its simulated
	// statistics over (sub-seeds of --seed); later runs in the window repeat
	// them, which checks that the simulation is deterministic.
	simSeeds = 10
)

const (
	kindInf = iota
	kindInteractive
	kindCompile
	numKinds
)

type simRun struct {
	m       *machine.Machine
	tasks   []*machine.Task
	kinds   []int
	weights []float64
	resp    []float64 // interactive response times, simulated µs
}

// simOutcome is what one simulation produced; two runs of one seed must
// produce equal outcomes.
type simOutcome struct {
	stats     machine.Stats
	services  string // every task's service, in spawn order
	responses int
}

func buildSim(seed uint64) *simRun {
	s := &simRun{m: machine.New(machine.Config{CPUs: simCPUs,
		Scheduler: core.New(simCPUs, core.WithQuantum(simQuantum)), Seed: seed})}
	for i := 0; i < simTasks; i++ {
		// The mix is fixed; the seed drives the machine's burst and think
		// draws, so seeds vary the schedule, not the population.
		kind, w := i%numKinds, simWeight(i)
		cfg := machine.SpawnConfig{Name: fmt.Sprintf("task-%d", i), Weight: w}
		var k *machine.Task
		switch kind {
		case kindInf:
			cfg.Behavior = workload.Inf()
		case kindInteractive:
			cfg.Behavior = workload.Interactive(simtime.Millisecond, 50*simtime.Millisecond)
			cfg.OnBurstEnd = func(now simtime.Time) {
				s.resp = append(s.resp, float64(now.Sub(k.LastWake()))/float64(simtime.Microsecond))
			}
		case kindCompile:
			cfg.Behavior = workload.CompileForever(10*simtime.Millisecond, 2*simtime.Millisecond)
		}
		k = s.m.Spawn(cfg)
		s.tasks = append(s.tasks, k)
		s.kinds = append(s.kinds, kind)
		s.weights = append(s.weights, w)
	}
	return s
}

func simWeight(i int) float64 { return float64(1 + (i/numKinds)%simWeights) }

func (s *simRun) outcome() simOutcome {
	var b []byte
	for _, k := range s.tasks {
		b = fmt.Appendf(b, "%d,", k.Thread().Service)
	}
	return simOutcome{stats: s.m.Stats(), services: string(b), responses: len(s.resp)}
}

func runSimPaper(cfg runConfig, rep *report) {
	var setups, hosts, nsPer []float64
	var resp, infUnits, infW []float64
	var dispatches, switches int64
	var memMB float64
	refs := make([]simOutcome, simSeeds)
	start := time.Now()
	for i := 0; i < simSeeds || time.Since(start) < cfg.window; i++ {
		t0 := time.Now()
		s := buildSim(cfg.seed*simSeeds + uint64(i%simSeeds))
		t1 := time.Now()
		s.m.Run(simtime.Time(simDuration))
		host := time.Since(t1)
		o := s.outcome()
		setups = append(setups, t1.Sub(t0).Seconds())
		hosts = append(hosts, host.Seconds())
		nsPer = append(nsPer, float64(host.Nanoseconds())/float64(o.stats.Dispatches))
		if i >= simSeeds {
			if o != refs[i%simSeeds] {
				rep.check(false, "sim-paper: run %d repeats sub-seed %d but differs: %+v vs %+v",
					i, i%simSeeds, o.stats, refs[i%simSeeds].stats)
				break
			}
			continue
		}
		refs[i] = o
		// Conservation: with free context switches every CPU-microsecond
		// of the horizon is either some task's service or idle time.
		var service simtime.Duration
		for j, k := range s.tasks {
			service += k.Thread().Service
			if s.kinds[j] == kindInf {
				infUnits = append(infUnits, float64(k.Thread().Service))
				infW = append(infW, s.weights[j])
			}
		}
		rep.check(service+o.stats.IdleTime == simCPUs*simDuration, "sim-paper: service %v + idle %v != %d CPUs × %v",
			service, o.stats.IdleTime, simCPUs, simDuration)
		resp = append(resp, s.resp...)
		dispatches += o.stats.Dispatches
		switches += o.stats.ContextSwitches
		runtime.GC() // a finished simulation holds the largest live heap
		memMB = max(memMB, float64(liveHeap())/(1<<20))
	}
	rep.ops(int64(len(hosts)), 0)

	perDispatch := median(nsPer)
	rep.note("sim-paper: %d runs over %d sub-seeds of %v simulated; host s per run min %.4f median %.4f max %.4f",
		len(hosts), simSeeds, simDuration, slices.Min(hosts), median(hosts), slices.Max(hosts))
	rep.addE2E("setup_s", median(setups), "s", len(setups))
	rep.addE2E("units_per_s", 1e9/perDispatch, "1/s", len(nsPer))
	rep.addE2E("share_ratio_min", shareRatioMin(classSums(infUnits, infW)), "ratio", 0)
	latencyE2E(rep, resp)
	rep.addE2E("mem_peak_mb", memMB, "MB", 0)
	if !cfg.traced {
		return
	}
	rep.addLayer("machine.dispatches", float64(dispatches), "count", 0)
	rep.addLayer("machine.ns_per_dispatch", perDispatch, "ns", len(nsPer))
	rep.addLayer("machine.context_switches", float64(switches), "count", 0)
	rep.addLayer("machine.sim_speed_x", simDuration.Seconds()/median(hosts), "x", len(hosts))
	ws := make([]float64, simTasks)
	for i := range ws {
		ws[i] = simWeight(i)
	}
	ladder(rep, ws, true)
	absent(rep, append(append([]string{"gen.late_p99_us", "gen.arrivals", "trace.spans",
		"trace.request.self_p50_us", "trace.session.self_p50_us", "trace.overhead.units_frac",
		"trace.overhead.latency_p50_frac", "cluster.migrations"}, rtAbsent...), statsAbsent...)...)
}
