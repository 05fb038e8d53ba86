// Live runs: the §4 comparison on the wall-clock runtime, where the policies
// schedule real goroutines with measured monotonic-clock charging. RunLive
// reproduces Figure 6(b)'s split on one runtime (weighted Jain ≈ 1 for the
// fair-queueing family, ≪ 1 for time sharing), RunLiveCluster the same over
// a cluster of runtimes, where any unfairness is placement or migration
// skew, and RunLiveLatency is Figure 6(c). internal/rt's policies_test and
// preempt_test pin the same contrasts deterministically on a FakeClock.

package experiments

import (
	"fmt"
	"runtime"
	"time"

	"sfsched/internal/cluster"
	"sfsched/internal/metrics"
	"sfsched/internal/rt"
	"sfsched/internal/simtime"
)

// LiveConfig parameterizes the live runs; a zero field takes the default
// noted with it.
type LiveConfig struct {
	Workers  int           // per runtime (0 = GOMAXPROCS; in a cluster 16)
	Shards   int           // dispatch shards (0 = 1, the central runqueue)
	PerTier  int           // tenants per weight tier (0 = 2; in a cluster 2x the worker slots)
	Duration time.Duration // how long the load runs (0 = 1 s)
	// SliceCap caps each dispatch's hold (0 = 25 ms); every policy takes
	// variable-length quanta, so short caps distort none of them.
	SliceCap time.Duration
	// Preempt arms wakeup preemption: compute-bound tasks poll their flag
	// every Grant (0 = 1 ms) and yield when a woken tenant out-ranks them.
	Preempt bool
	Grant   time.Duration
	// RunLiveLatency: Hogs compute-bound tenants, the paper's disksim pool
	// (0 = 8). Enforce arms involuntary slice enforcement; Adversarial hogs
	// never poll their preemption flag, so only the enforcer bounds them.
	Hogs                 int
	Enforce, Adversarial bool
	// RunLiveCluster: Machines (0 = 8), placement probes K (0 = 2) and the
	// migrator period (0 = the cluster default; negative = placement only).
	Machines, K  int
	MigrateEvery time.Duration
}

// withDefaults fills the zero fields of c.
func (c LiveConfig) withDefaults(inCluster bool) LiveConfig {
	c.Machines = orDefault(c.Machines, 8)
	c.K = orDefault(c.K, 2)
	if inCluster {
		c.Workers = orDefault(c.Workers, 16)
		c.PerTier = orDefault(c.PerTier, max(c.Machines*c.Workers/2, c.Machines))
	}
	c.Workers = orDefault(c.Workers, runtime.GOMAXPROCS(0))
	c.Shards = orDefault(c.Shards, 1)
	c.PerTier = orDefault(c.PerTier, 2)
	c.Hogs = orDefault(c.Hogs, 8)
	c.Duration = orDefault(c.Duration, time.Second)
	c.SliceCap = orDefault(c.SliceCap, 25*time.Millisecond)
	c.Grant = orDefault(c.Grant, time.Millisecond)
	return c
}

// orDefault returns v, or d when v is not positive.
func orDefault[T int | time.Duration](v, d T) T {
	if v <= 0 {
		return d
	}
	return v
}

// LiveResult is the outcome of one policy's fairness or cluster run: its
// configuration (one runtime is one machine), each tenant's statistics at
// the end (in a cluster, Shard is the hosting machine and Share is
// cluster-wide) and weight-proportional ideal share, the weighted Jain index
// of charged service and the worst relative share error.
type LiveResult struct {
	Policy                       string
	Machines, K, Workers, Shards int
	Tenants                      []rt.TenantStat
	Ideal                        []float64
	Permachine                   []cluster.MachineStat
	Jain, WorstErr               float64
	Migrations                   int64
}

// RunLive subjects one policy to the weighted tier workload on one
// wall-clock runtime. Every tenant stays backlogged for the whole run, so
// the weights, not the submission pattern, decide the ideal split.
func RunLive(policy rt.Policy, cfg LiveConfig) LiveResult {
	cfg = cfg.withDefaults(false)
	r := rt.New(rt.Config{Workers: cfg.Workers, Shards: cfg.Shards, Policy: policy,
		QueueCap: 2, Preempt: cfg.Preempt})
	defer r.Close() // abandons the perpetual tasks
	task, opts := spinTask(cfg, cfg.Preempt)
	loadTiers(cfg.PerTier, r.Register, task, opts...)
	time.Sleep(cfg.Duration)
	res := LiveResult{Policy: policy(1).Name(), Machines: 1, K: 1, Workers: cfg.Workers, Shards: cfg.Shards}
	res.summarize(r.Stats())
	res.Migrations = r.Migrations()
	return res
}

// RunLiveCluster subjects one policy to the weighted tier workload on a
// wall-clock cluster. Tenants hold their slices with a clock wait, not CPU
// burn, so that Machines × Workers slice servers are emulable on any host.
func RunLiveCluster(policy rt.Policy, cfg LiveConfig) LiveResult {
	cfg = cfg.withDefaults(true)
	c := must(cluster.New(cluster.Config{Machines: cfg.Machines, K: cfg.K, Workers: cfg.Workers,
		Policy: policy, QueueCap: 2, MigrateEvery: cfg.MigrateEvery}))
	defer c.Close() // abandons the perpetual tasks
	loadTiers(cfg.PerTier, c.Register, hold(cfg.SliceCap, time.Sleep))
	time.Sleep(cfg.Duration)
	res := LiveResult{Policy: policy(1).Name(), Machines: cfg.Machines, K: cfg.K, Workers: cfg.Workers, Shards: 1}
	var stats []rt.TenantStat
	for _, s := range c.Stats() {
		s.Shard = s.Machine
		stats = append(stats, s.TenantStat)
	}
	res.summarize(stats)
	res.Permachine = c.MachineStats()
	res.Migrations = c.Migrations()
	return res
}

// summarize records the tenants' statistics, ideal shares, Jain index and
// share error.
func (res *LiveResult) summarize(stats []rt.TenantStat) {
	var total float64
	for _, s := range stats {
		total += s.Weight
	}
	res.Tenants, res.Ideal = stats, make([]float64, len(stats))
	services := make([]simtime.Duration, len(stats))
	weights := make([]float64, len(stats))
	measured := make([]float64, len(stats))
	for i, s := range stats {
		services[i], weights[i], measured[i], res.Ideal[i] = s.Service, s.Weight, s.Share, s.Weight/total
	}
	res.Jain = metrics.JainIndex(services, weights)
	res.WorstErr = metrics.RatioError(measured, res.Ideal)
}

// loadTiers registers perTier tenants in each 4:3:2:1 weight tier through a
// runtime's or a cluster's Register and submits task to each.
func loadTiers[T interface {
	SubmitTask(rt.Task, ...rt.SubmitOption) error
}](perTier int, register func(string, float64) (T, error), task rt.Task, opts ...rt.SubmitOption) {
	for t, tier := range []string{"platinum", "gold", "silver", "bronze"} {
		for i := 0; i < perTier; i++ {
			tn := must(register(fmt.Sprintf("%s-%d", tier, i), float64(4-t)))
			mustOK(tn.SubmitTask(task, opts...))
		}
	}
}

// hold returns a compute-bound task: it occupies each granted slice, capped
// at sliceCap, and never finishes.
func hold(sliceCap time.Duration, occupy func(time.Duration)) rt.Task {
	return func(slice simtime.Duration) bool {
		occupy(min(slice.Std(), sliceCap))
		return false
	}
}

// spinTask returns hold's task spinning the CPU; a preemptible one checks
// its preemption flag every cfg.Grant and yields when it is raised.
func spinTask(cfg LiveConfig, preemptible bool) (rt.Task, []rt.SubmitOption) {
	if !preemptible {
		return hold(cfg.SliceCap, spinFor), nil
	}
	return nil, []rt.SubmitOption{rt.Preemptible(func(ctx rt.SliceCtx) bool {
		deadline := time.Now().Add(min(ctx.Slice().Std(), cfg.SliceCap))
		for time.Now().Before(deadline) && !ctx.Preempted() {
			spinFor(min(cfg.Grant, time.Until(deadline)))
		}
		return false
	})}
}

// spinFor burns CPU for about d of wall-clock time.
func spinFor(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// FairnessTable renders fairness or cluster results Figure-6(b)-style, one
// row per policy.
func FairnessTable(results []LiveResult) string {
	tbl := &metrics.Table{Headers: []string{"policy", "machines", "k", "workers", "shards", "jain", "worst_err", "migrations"}}
	for _, res := range results {
		tbl.AddRow(res.Policy, fmt.Sprint(res.Machines), fmt.Sprint(res.K), fmt.Sprint(res.Workers), fmt.Sprint(res.Shards),
			fmt.Sprintf("%.4f", res.Jain), fmt.Sprintf("%.1f%%", 100*res.WorstErr), fmt.Sprint(res.Migrations))
	}
	return tbl.String()
}

// TenantTable renders one run's per-tenant shares against their ideals.
func TenantTable(res LiveResult) string {
	place := "shard"
	if res.Permachine != nil {
		place = "machine"
	}
	tbl := &metrics.Table{Headers: []string{"tenant", "weight", place, "cpu_ms", "share", "ideal"}}
	for i, tn := range res.Tenants {
		tbl.AddRow(tn.Name, fmt.Sprintf("%g", tn.Weight), fmt.Sprint(tn.Shard), ms(tn.Service.Std(), 1),
			fmt.Sprintf("%.3f", tn.Share), fmt.Sprintf("%.3f", res.Ideal[i]))
	}
	return tbl.String()
}

// MachineTable renders a cluster run's per-machine rollup: with placement
// and migration at work, each machine's share tracks its share of weight.
func MachineTable(res LiveResult) string {
	tbl := &metrics.Table{Headers: []string{"machine", "workers", "tenants", "weight", "cpu_ms", "share", "jain"}}
	var totalWeight float64
	for _, m := range res.Permachine {
		totalWeight += m.Weight
	}
	for _, m := range res.Permachine {
		tbl.AddRow(fmt.Sprint(m.Machine), fmt.Sprint(m.Workers), fmt.Sprint(m.Tenants),
			fmt.Sprintf("%g/%g", m.Weight, totalWeight), ms(m.Service.Std(), 1),
			fmt.Sprintf("%.3f", m.Share), fmt.Sprintf("%.4f", m.Jain))
	}
	return tbl.String()
}

// ms formats d in milliseconds with the given number of decimals.
func ms(d time.Duration, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, float64(d.Microseconds())/1000)
}

// LiveLatencyResult is one RunLiveLatency cell: the interactive tenant's
// wakeup→first-dispatch quantiles, and the preemption flags and handoffs the
// hogs took.
type LiveLatencyResult struct {
	Policy                string
	Preempt, Enforce      bool
	Hogs                  int
	Wake                  rt.LatencyStat
	Preemptions, Handoffs int64
}

// RunLiveLatency subjects one policy to the interactive-vs-hogs workload on
// the wall-clock runtime. The interactive tenant thinks 5 ms, then bursts
// 500 µs, so every burst is a wakeup.
func RunLiveLatency(policy rt.Policy, cfg LiveConfig) LiveLatencyResult {
	cfg = cfg.withDefaults(false)
	r := rt.New(rt.Config{Workers: cfg.Workers, Shards: cfg.Shards, Policy: policy,
		QueueCap: 2, Preempt: cfg.Preempt, Enforce: cfg.Enforce})
	defer r.Close() // abandons the perpetual hogs
	task, opts := spinTask(cfg, !cfg.Adversarial)
	for i := 0; i < cfg.Hogs; i++ {
		mustOK(must(r.Register(fmt.Sprintf("hog-%d", i), 1)).SubmitTask(task, opts...))
	}
	interact := must(r.Register("interact", 1))
	done := make(chan struct{}, 1)
	for stop := time.Now().Add(cfg.Duration); time.Now().Before(stop); {
		time.Sleep(5 * time.Millisecond)
		mustOK(interact.SubmitTask(rt.Once(func() {
			spinFor(500 * time.Microsecond)
			done <- struct{}{}
		})))
		<-done
	}
	res := LiveLatencyResult{Policy: policy(1).Name(), Preempt: cfg.Preempt, Enforce: cfg.Enforce, Hogs: cfg.Hogs}
	for _, s := range r.Stats() {
		if s.Name == "interact" {
			res.Wake = s.Wake
		} else {
			res.Preemptions += s.Preemptions
			res.Handoffs += s.Handoffs
		}
	}
	return res
}

// LatencyTable renders latency results Figure-6(c)-style: one row per
// (policy, preemption, enforcement) cell.
func LatencyTable(results []LiveLatencyResult) string {
	tbl := &metrics.Table{Headers: []string{"policy", "preempt", "enforce", "hogs", "wakes",
		"p50_ms", "p95_ms", "p99_ms", "max_ms", "preemptions", "handoffs"}}
	onOff := map[bool]string{true: "on", false: "off"}
	for _, res := range results {
		w := res.Wake
		tbl.AddRow(res.Policy, onOff[res.Preempt], onOff[res.Enforce], fmt.Sprint(res.Hogs), fmt.Sprint(w.Count),
			ms(w.P50.Std(), 2), ms(w.P95.Std(), 2), ms(w.P99.Std(), 2), ms(w.Max.Std(), 2),
			fmt.Sprint(res.Preemptions), fmt.Sprint(res.Handoffs))
	}
	return tbl.String()
}
