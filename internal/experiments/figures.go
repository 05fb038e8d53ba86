package experiments

// The simulated figures of §4, the §1.2 partitioning alternative, and SFS
// fidelity as the processor count grows.

import (
	"fmt"
	"math"
	"strings"

	"sfsched/internal/core"
	"sfsched/internal/machine"
	"sfsched/internal/metrics"
	"sfsched/internal/sched"
	"sfsched/internal/simtime"
	"sfsched/internal/workload"
	"sfsched/internal/xrand"
)

// Loop and frame costs convert delivered CPU service into the application
// rates the paper plots; with them, a thread owning one CPU matches the
// order of the paper's y-axes.
const (
	InfLoopCost       = 16 * simtime.Microsecond    // Inf: ~2.5e6 iterations over 40 s
	DhrystoneLoopCost = simtime.Microsecond         // Figure 6(a): 1e6 loops/sec
	MPEGFrameCost     = 22727 * simtime.Microsecond // Figure 6(b): 44 frames/sec
)

// Fig3Params configures the heuristic-accuracy experiment (Figure 3): each
// pick of the bounded-examination heuristic among many runnable threads of
// random weights is compared against the exact minimum-surplus thread.
type Fig3Params struct {
	Setup
	Threads []int // runnable-thread counts to sweep (paper: 100..400)
	Ks      []int // candidates examined per queue (paper: x-axis 0..100)
}

// Fig3Defaults returns the paper's Figure 3 setup.
func Fig3Defaults() Fig3Params {
	return Fig3Params{
		Setup:   Setup{CPUs: 4, Quantum: 10 * simtime.Millisecond, Horizon: simtime.Time(10 * simtime.Second), Seed: 7},
		Threads: []int{100, 200, 300, 400},
		Ks:      []int{1, 2, 5, 10, 20, 40, 60, 80, 100},
	}
}

// Fig3Result holds, per thread count, the heuristic's accuracy at each k:
// the percentage of picks tied with the true minimum surplus.
type Fig3Result struct {
	Params   Fig3Params
	Accuracy map[int][]float64
}

// accuracyProbe wraps SFS, counting the picks tied with the exact minimum
// surplus.
type accuracyProbe struct {
	*core.SFS
	hits, total int64
}

func (p *accuracyProbe) Pick(cpu int, now simtime.Time) *sched.Thread {
	_, exact := p.SFS.ExactMinSurplus()
	t := p.SFS.Pick(cpu, now)
	if t != nil {
		p.total++
		fresh := t.Phi * (t.Start - p.VirtualTime())
		if fresh <= exact+1e-12+1e-9*math.Abs(exact) {
			p.hits++
		}
	}
	return t
}

// Fig3 runs the heuristic-accuracy sweep.
func Fig3(p Fig3Params) Fig3Result {
	res := Fig3Result{Params: p, Accuracy: make(map[int][]float64)}
	for _, n := range p.Threads {
		for _, k := range p.Ks {
			res.Accuracy[n] = append(res.Accuracy[n], fig3Run(p, n, k))
		}
	}
	return res
}

// fig3Run measures accuracy for one (thread count, k) cell.
func fig3Run(p Fig3Params, n, k int) float64 {
	probe := &accuracyProbe{SFS: core.New(p.CPUs, core.WithQuantum(p.Quantum), core.WithHeuristic(k))}
	m := machine.New(machine.Config{CPUs: p.CPUs, Scheduler: probe, Seed: p.Seed})
	// Random weights in [1, 50]; 30% of the threads block periodically, so
	// start tags, weights and stale surpluses diverge.
	wr := xrand.New(p.Seed ^ uint64(n)<<16 ^ uint64(k))
	for i := 0; i < n; i++ {
		beh := workload.Inf()
		if wr.Float64() >= 0.7 {
			burst := simtime.Duration(20+wr.Intn(60)) * simtime.Millisecond
			sleep := simtime.Duration(5+wr.Intn(45)) * simtime.Millisecond
			beh = workload.Periodic(burst, sleep)
		}
		m.Spawn(machine.SpawnConfig{Name: fmt.Sprintf("t%d", i), Weight: float64(1 + wr.Intn(50)), Behavior: beh})
	}
	m.Run(p.Horizon)
	if probe.total == 0 {
		return 0
	}
	return 100 * float64(probe.hits) / float64(probe.total)
}

// Render formats the result as the paper's accuracy table.
func (r Fig3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: heuristic accuracy (%%) on %d CPUs\n", r.Params.CPUs)
	fmt.Fprintf(&b, "  %-10s", "k")
	for _, k := range r.Params.Ks {
		fmt.Fprintf(&b, "%7d", k)
	}
	b.WriteByte('\n')
	for _, n := range r.Params.Threads {
		fmt.Fprintf(&b, "  %-10s", fmt.Sprintf("n=%d", n))
		for _, a := range r.Accuracy[n] {
			fmt.Fprintf(&b, "%7.2f", a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig4Params configures the infeasible-weights experiment (Figure 4, and
// Figure 1 at 1 ms quanta): Inf tasks T1 and T2 with weights 1:10, T3 with
// weight 1 arriving at T3Arrival, and T2 killed at T2Stop.
type Fig4Params struct {
	Kind Kind
	Setup
	T3Arrival   simtime.Time
	T2Stop      simtime.Time // 0 disables the kill (Figure 1 variant)
	SampleEvery simtime.Duration
}

// Fig4Defaults returns the paper's Figure 4 setup under kind.
func Fig4Defaults(kind Kind) Fig4Params {
	return Fig4Params{
		Kind:        kind,
		Setup:       Setup{CPUs: 2, Quantum: 200 * simtime.Millisecond, Horizon: simtime.Time(40 * simtime.Second), Seed: 1},
		T3Arrival:   simtime.Time(15 * simtime.Second),
		T2Stop:      simtime.Time(30 * simtime.Second),
		SampleEvery: 500 * simtime.Millisecond,
	}
}

// Fig1Defaults returns the Example 1 / Figure 1 setup under kind: 1 ms
// quanta, T3 arriving after 1000 quanta, no kill.
func Fig1Defaults(kind Kind) Fig4Params {
	return Fig4Params{
		Kind:        kind,
		Setup:       Setup{CPUs: 2, Quantum: simtime.Millisecond, Horizon: simtime.Time(2500 * simtime.Millisecond), Seed: 1},
		T3Arrival:   simtime.Time(simtime.Second),
		SampleEvery: 25 * simtime.Millisecond,
	}
}

// Fig4Result carries the loop-count series of T1, T2 and T3 and their
// service at the horizon.
type Fig4Result struct {
	Params     Fig4Params
	Sched      string
	T1, T2, T3 *metrics.Series
	Service    [3]simtime.Duration
}

// Fig4 runs the infeasible-weights experiment.
func Fig4(p Fig4Params) Fig4Result {
	m := p.machine(p.Kind)
	t1 := m.Spawn(machine.SpawnConfig{Name: "T1", Weight: 1, Behavior: workload.Inf()})
	t2 := m.Spawn(machine.SpawnConfig{Name: "T2", Weight: 10, Behavior: workload.Inf()})
	t3 := m.Spawn(machine.SpawnConfig{Name: "T3", Weight: 1, Behavior: workload.Inf(), At: p.T3Arrival})
	if p.T2Stop > 0 {
		m.At(p.T2Stop, func(now simtime.Time) { m.Kill(t2) })
	}
	sampler := metrics.NewServiceSampler(m, p.SampleEvery, InfLoopCost, t1, t2, t3)
	m.Run(p.Horizon)
	ss := sampler.Series()
	return Fig4Result{p, m.Scheduler().Name(), ss[0], ss[1], ss[2],
		[3]simtime.Duration{t1.Thread().Service, t2.Thread().Service, t3.Thread().Service}}
}

// Render formats the result for CLI output.
func (r Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4 workload under %s (quantum %v, %d CPUs)\n",
		r.Sched, r.Params.Quantum, r.Params.CPUs)
	for _, s := range []*metrics.Series{r.T1, r.T2, r.T3} {
		fmt.Fprintf(&b, "  %-3s loops: %s  final=%.3g\n", s.Name, metrics.Sparkline(s.Y), s.Last())
	}
	t3s := r.Params.T3Arrival.Seconds()
	stop := r.Params.Horizon.Seconds()
	if r.Params.T2Stop > 0 {
		stop = r.Params.T2Stop.Seconds()
	}
	fmt.Fprintf(&b, "  T1 progress while T3 catches up [%.3gs..%.3gs]: %.4g loops\n",
		t3s, stop, r.T1.Delta(t3s+0.5, stop-0.5))
	return b.String()
}

// panel is the result's panel, with CSV file <stem>_<kind>.
func (r Fig4Result) panel(stem string) Panel {
	return Panel{r.Render(), stem + "_" + string(r.Params.Kind), []*metrics.Series{r.T1, r.T2, r.T3}}
}

// Fig5Params configures the short-jobs experiment (Figure 5, Example 2): a
// heavy Inf task, a group of weight-1 Inf tasks and a back-to-back stream of
// short tasks. The weights stay feasible, yet plain SFQ misallocates.
type Fig5Params struct {
	Kind Kind
	Setup
	Heavy       float64          // weight of T1
	Group       int              // number of weight-1 background tasks
	ShortWeight float64          // weight of each short task
	ShortLen    simtime.Duration // CPU demand of each short task
	SampleEvery simtime.Duration
}

// Fig5Defaults returns the paper's Figure 5 setup.
func Fig5Defaults(kind Kind) Fig5Params {
	return Fig5Params{
		Kind:        kind,
		Setup:       Setup{CPUs: 2, Quantum: 200 * simtime.Millisecond, Horizon: simtime.Time(30 * simtime.Second), Seed: 1},
		Heavy:       20,
		Group:       20,
		ShortWeight: 5,
		ShortLen:    300 * simtime.Millisecond,
		SampleEvery: 500 * simtime.Millisecond,
	}
}

// Fig5Result carries the loop-count series of T1, the T2–T21 aggregate and
// the cumulative short-task stream, their service at the horizon, and the
// number of short tasks completed.
type Fig5Result struct {
	Params           Fig5Params
	Sched            string
	T1, Group, Short *metrics.Series
	Service          [3]simtime.Duration
	ShortJobs        int
}

// Fig5 runs the short-jobs experiment. The requested proportions are
// 20 : 20 : 5 = 4 : 4 : 1 for T1 : ΣT2–21 : short stream.
func Fig5(p Fig5Params) Fig5Result {
	m := p.machine(p.Kind)
	t1 := m.Spawn(machine.SpawnConfig{Name: "T1", Weight: p.Heavy, Behavior: workload.Inf()})
	group := spawnN(m, p.Group, 2, "T", 1, workload.Inf())
	// Each short task runs ShortLen of CPU and exits; the next arrives then.
	var (
		completed simtime.Duration
		jobs      int
		cur       *machine.Task
		spawn     func(at simtime.Time)
	)
	spawn = func(at simtime.Time) {
		cur = m.Spawn(machine.SpawnConfig{Name: "T_short", Weight: p.ShortWeight,
			Behavior: workload.Finite(p.ShortLen), At: at, OnExit: func(now simtime.Time) {
				completed += p.ShortLen
				jobs++
				spawn(now)
			}})
	}
	spawn(0)
	// services reads T1's, the group's and the short stream's service.
	services := func(service func(*machine.Task) simtime.Duration) [3]simtime.Duration {
		var g simtime.Duration
		for _, k := range group {
			g += service(k)
		}
		s := completed
		if cur != nil && !cur.Exited() {
			s += service(cur)
		}
		return [3]simtime.Duration{service(t1), g, s}
	}
	series := []*metrics.Series{{Name: "T1"}, {Name: "T2-21"}, {Name: "T_short"}}
	m.Every(p.SampleEvery, func(now simtime.Time) {
		for i, s := range services(m.ServiceNow) {
			series[i].X = append(series[i].X, now.Seconds())
			series[i].Y = append(series[i].Y, workload.Loops(s, InfLoopCost))
		}
	})
	m.Run(p.Horizon)
	final := services(func(k *machine.Task) simtime.Duration { return k.Thread().Service })
	return Fig5Result{p, m.Scheduler().Name(), series[0], series[1], series[2], final, jobs}
}

// Shares returns the fraction of delivered bandwidth received by T1, the
// group, and the short stream. The requested split is 4/9 : 4/9 : 1/9.
func (r Fig5Result) Shares() []float64 {
	return metrics.SharesOf(r.Service[0], r.Service[1], r.Service[2])
}

// Render formats the result for CLI output.
func (r Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5 workload under %s (%d CPUs)\n", r.Sched, r.Params.CPUs)
	for _, s := range []*metrics.Series{r.T1, r.Group, r.Short} {
		fmt.Fprintf(&b, "  %-7s loops: %s  final=%.4g\n", s.Name, metrics.Sparkline(s.Y), s.Last())
	}
	sh := r.Shares()
	fmt.Fprintf(&b, "  shares T1:group:short = %.3f : %.3f : %.3f (requested 0.444 : 0.444 : 0.111)\n",
		sh[0], sh[1], sh[2])
	fmt.Fprintf(&b, "  short jobs completed: %d\n", r.ShortJobs)
	return b.String()
}

// panel is the result's panel, with CSV file fig5_<kind>.
func (r Fig5Result) panel() Panel {
	return Panel{r.Render(), "fig5_" + string(r.Params.Kind), []*metrics.Series{r.T1, r.Group, r.Short}}
}

// Fig6aParams configures the proportionate-allocation experiment
// (Figure 6(a)): two dhrystones at each weight ratio beside weight-1
// background dhrystones, which keep every assignment feasible.
type Fig6aParams struct {
	Kind Kind
	Setup
	Background int
	Ratios     [][2]float64
}

// Fig6aDefaults returns the paper's Figure 6(a) setup.
func Fig6aDefaults(kind Kind) Fig6aParams {
	return Fig6aParams{
		Kind:       kind,
		Setup:      Setup{CPUs: 2, Quantum: 200 * simtime.Millisecond, Horizon: simtime.Time(30 * simtime.Second), Seed: 1},
		Background: 20,
		Ratios:     [][2]float64{{1, 1}, {1, 2}, {1, 4}, {1, 7}},
	}
}

// Fig6a runs the proportionate-allocation experiment: both dhrystones'
// loops/sec and their measured and requested ratio per weight assignment.
func Fig6a(p Fig6aParams) Grid {
	g := Grid{Headers: []string{"weights"}}
	var a, b, measured, requested []float64
	for _, ratio := range p.Ratios {
		m := p.machine(p.Kind)
		g.Title = "Figure 6(a): dhrystone loops/sec under " + m.Scheduler().Name()
		spawnN(m, p.Background, 0, "bg", 1, workload.Inf())
		ta := m.Spawn(machine.SpawnConfig{Name: "dhry-A", Weight: ratio[0], Behavior: workload.Inf()})
		tb := m.Spawn(machine.SpawnConfig{Name: "dhry-B", Weight: ratio[1], Behavior: workload.Inf()})
		m.Run(p.Horizon)
		la := workload.LoopRate(ta.Thread().Service, DhrystoneLoopCost, simtime.Duration(p.Horizon))
		lb := workload.LoopRate(tb.Thread().Service, DhrystoneLoopCost, simtime.Duration(p.Horizon))
		g.Labels = append(g.Labels, fmt.Sprintf("%g:%g", ratio[0], ratio[1]))
		a, b = append(a, la), append(b, lb)
		measured = append(measured, lb/la)
		requested = append(requested, ratio[1]/ratio[0])
	}
	g.add("loops/sec A", "%.0f", a)
	g.add("loops/sec B", "%.0f", b)
	g.add("measured B/A", "%.2f", measured)
	g.add("requested B/A", "%.2f", requested)
	return g
}

// Fig6bParams configures the application-isolation experiment
// (Figure 6(b)): a heavily weighted MPEG decoder against a growing number of
// weight-1 compilations.
type Fig6bParams struct {
	Kinds []Kind
	Setup
	DecoderWeight float64
	Compilations  []int
}

// Fig6bDefaults returns the paper's Figure 6(b) setup.
func Fig6bDefaults() Fig6bParams {
	return Fig6bParams{
		Kinds:         []Kind{SFS, Timeshare},
		Setup:         Setup{CPUs: 2, Quantum: 200 * simtime.Millisecond, Horizon: simtime.Time(20 * simtime.Second), Seed: 1},
		DecoderWeight: 10000,
		Compilations:  []int{0, 1, 2, 4, 6, 8, 10},
	}
}

// Fig6b runs the application-isolation experiment: the decoder's frame
// rate per compilation load, one "<kind> fps" column per scheduler.
func Fig6b(p Fig6bParams) Grid {
	g := Grid{Title: "Figure 6(b): MPEG frame rate vs. background compilations",
		Headers: []string{"compilations"}, Labels: labels(p.Compilations)}
	for _, kind := range p.Kinds {
		var fps []float64
		for _, n := range p.Compilations {
			m := p.machine(kind)
			dec := m.Spawn(machine.SpawnConfig{Name: "mpeg_play", Weight: p.DecoderWeight, Behavior: workload.Inf()})
			spawnN(m, n, 0, "gcc", 1, workload.CompileForever(30*simtime.Millisecond, 3*simtime.Millisecond))
			m.Run(p.Horizon)
			fps = append(fps, workload.LoopRate(dec.Thread().Service, MPEGFrameCost, simtime.Duration(p.Horizon)))
		}
		g.add(string(kind)+" fps", "%.1f", fps)
	}
	return g
}

// Fig6cParams configures the interactive-performance experiment
// (Figure 6(c)): the Interact application against a growing number of
// compute-bound disksims, all with weight 1.
type Fig6cParams struct {
	Kinds []Kind
	Setup
	Disksims  []int
	MeanBurst simtime.Duration
	MeanThink simtime.Duration
}

// Fig6cDefaults returns the paper's Figure 6(c) setup.
func Fig6cDefaults() Fig6cParams {
	return Fig6cParams{
		Kinds:     []Kind{SFS, Timeshare},
		Setup:     Setup{CPUs: 2, Quantum: 200 * simtime.Millisecond, Horizon: simtime.Time(30 * simtime.Second), Seed: 1},
		Disksims:  []int{0, 2, 4, 6, 8, 10},
		MeanBurst: 3 * simtime.Millisecond,
		MeanThink: 100 * simtime.Millisecond,
	}
}

// Fig6c runs the interactive-performance experiment: Interact's mean and
// p95 response time (ms) per disksim load under each kind.
func Fig6c(p Fig6cParams) Grid {
	g := Grid{Title: "Figure 6(c): Interact mean response time (ms) vs. disksim load",
		Headers: []string{"disksims"}, Labels: labels(p.Disksims)}
	for _, kind := range p.Kinds {
		var means, p95s []float64
		for _, n := range p.Disksims {
			m := p.machine(kind)
			var rec workload.Responses
			var interact *machine.Task
			interact = m.Spawn(machine.SpawnConfig{Name: "interact", Weight: 1,
				Behavior:   workload.Interactive(p.MeanBurst, p.MeanThink),
				OnBurstEnd: func(now simtime.Time) { rec.Add(now.Sub(interact.LastWake())) }})
			spawnN(m, n, 0, "disksim", 1, workload.Inf())
			m.Run(p.Horizon)
			means = append(means, rec.Mean().Milliseconds())
			p95s = append(p95s, rec.Percentile(95).Milliseconds())
		}
		g.add(string(kind)+" mean", "%.2f", means)
		g.add(string(kind)+" p95", "%.2f", p95s)
	}
	return g
}

// PartitionParams configures the partitioning-alternative experiment: a
// churny workload whose blocked threads leave holes in their partition, the
// imbalance §1.2 predicts for static partitioning.
type PartitionParams struct {
	Kinds []Kind
	Setup
	Threads int
}

// PartitionDefaults returns the default churn setup.
func PartitionDefaults() PartitionParams {
	return PartitionParams{
		Kinds:   []Kind{SFS, SFQReadjust, Partitioned, PartRebal},
		Setup:   Setup{CPUs: 2, Quantum: 20 * simtime.Millisecond, Horizon: simtime.Time(60 * simtime.Second), Seed: 5},
		Threads: 8,
	}
}

// Partition runs the churn workload under each scheduler: the Jain index of
// per-weight service, the worst |A_i − A_i^GMS| and the idle fraction.
func Partition(p PartitionParams) Grid {
	g := Grid{Title: fmt.Sprintf("Partitioning alternative (§1.2): churny workload, %d threads on %d CPUs",
		p.Threads, p.CPUs), Headers: []string{"scheduler"}}
	var jain, lag, idle []float64
	for _, kind := range p.Kinds {
		m := p.machine(kind)
		fluid := AttachGMS(m, p.CPUs)
		var threads []*sched.Thread
		for i := 0; i < p.Threads; i++ {
			beh := workload.Inf()
			if i%2 == 1 {
				beh = workload.Periodic(simtime.Duration(2+i)*simtime.Second, simtime.Duration(1+i%3)*simtime.Second)
			}
			th := m.Spawn(machine.SpawnConfig{Name: fmt.Sprintf("t%d", i), Weight: float64(1 + i%3), Behavior: beh}).Thread()
			threads = append(threads, th)
		}
		m.Run(p.Horizon)
		fluid.Advance(p.Horizon)
		g.Labels = append(g.Labels, m.Scheduler().Name())
		jain = append(jain, metrics.JainIndex(servicesOf(threads)))
		lag = append(lag, fluid.MaxAbsLag(threads))
		idle = append(idle, float64(m.Stats().IdleTime)/float64(simtime.Duration(p.Horizon)*simtime.Duration(p.CPUs)))
	}
	g.add("Jain index", "%.4f", jain)
	g.add("max |lag| vs GMS", "%.3fs", lag)
	g.add("idle fraction", "%.3f", idle)
	return g
}

// ScalePParams configures the processor-count scaling experiment, the
// simulations behind §4.1's note that SFS's efficacy holds on larger
// processor counts: the worst deviation from GMS as p grows.
type ScalePParams struct {
	Kind    Kind
	CPUs    []int
	Threads int // runnable threads per CPU
	Quantum simtime.Duration
	Horizon simtime.Time
	Seed    uint64
}

// ScalePDefaults returns the default sweep: 2 to 16 CPUs.
func ScalePDefaults(kind Kind) ScalePParams {
	return ScalePParams{
		Kind:    kind,
		CPUs:    []int{2, 4, 8, 16},
		Threads: 6,
		Quantum: 20 * simtime.Millisecond,
		Horizon: simtime.Time(30 * simtime.Second),
		Seed:    21,
	}
}

// ScaleP runs the scaling sweep: the worst |lag vs GMS| in quanta per CPU
// count.
func ScaleP(p ScalePParams) Grid {
	g := Grid{Title: fmt.Sprintf("Scaling: worst |lag vs GMS| (in quanta) under %s, %d threads/CPU", p.Kind, p.Threads),
		Headers: []string{"CPUs"}, Labels: labels(p.CPUs)}
	var lags []float64
	for _, cpus := range p.CPUs {
		m := Setup{CPUs: cpus, Quantum: p.Quantum, Seed: p.Seed}.machine(p.Kind)
		fluid := AttachGMS(m, cpus)
		var threads []*sched.Thread
		for i := 0; i < cpus*p.Threads; i++ {
			threads = append(threads, m.Spawn(machine.SpawnConfig{Name: fmt.Sprintf("t%d", i),
				Weight: float64(1 + i%7), Behavior: workload.Inf()}).Thread())
		}
		m.Run(p.Horizon)
		fluid.Advance(p.Horizon)
		lags = append(lags, fluid.MaxAbsLag(threads)/p.Quantum.Seconds())
	}
	g.add("max lag (quanta)", "%.2f", lags)
	return g
}

// servicesOf returns the threads' services and weights.
func servicesOf(threads []*sched.Thread) ([]simtime.Duration, []float64) {
	services := make([]simtime.Duration, len(threads))
	weights := make([]float64, len(threads))
	for i, th := range threads {
		services[i], weights[i] = th.Service, th.Weight
	}
	return services, weights
}

// spawnN spawns n tasks named <prefix><first+i> with one weight and
// behaviour.
func spawnN(m *machine.Machine, n, first int, prefix string, weight float64, beh machine.Behavior) []*machine.Task {
	tasks := make([]*machine.Task, n)
	for i := range tasks {
		tasks[i] = m.Spawn(machine.SpawnConfig{Name: fmt.Sprintf("%s%d", prefix, first+i), Weight: weight, Behavior: beh})
	}
	return tasks
}

// Sim runs compute-bound tasks with the given weights under kind beside the
// GMS fluid, and renders each task's share, GMS ideal and lag, the weighted
// Jain index, the worst lag and the machine's counters.
func Sim(kind Kind, weights []float64, s Setup) string {
	m := s.machine(kind)
	fluid := AttachGMS(m, s.CPUs)
	threads := make([]*sched.Thread, len(weights))
	for i, w := range weights {
		threads[i] = m.Spawn(machine.SpawnConfig{Name: fmt.Sprintf("task%d", i+1), Weight: w, Behavior: workload.Inf()}).Thread()
	}
	m.Run(s.Horizon)
	fluid.Advance(s.Horizon)
	g := Grid{Title: fmt.Sprintf("%s on %d CPUs, %v quantum, %v horizon", m.Scheduler().Name(), s.CPUs, s.Quantum,
		simtime.Duration(s.Horizon)), Headers: []string{"task"}}
	var service, ideal, lag []float64
	for _, th := range threads {
		g.Labels = append(g.Labels, th.Name)
		service = append(service, th.Service.Seconds())
		ideal = append(ideal, fluid.Service(th))
		lag = append(lag, fluid.Lag(th))
	}
	services, _ := servicesOf(threads)
	g.add("weight", "%g", weights)
	g.add("service", "%.3fs", service)
	g.add("share", "%.3f", metrics.SharesOf(services...))
	g.add("GMS ideal", "%.3fs", ideal)
	g.add("lag", "%+.3fs", lag)
	st := m.Stats()
	return fmt.Sprintf("%s\nJain fairness index (per-weight): %.4f\nmax |lag vs GMS|: %.3fs\n"+
		"dispatches=%d switches=%d preemptions=%d migrations=%d idle=%v\n",
		g.Render(), metrics.JainIndex(services, weights), fluid.MaxAbsLag(threads),
		st.Dispatches, st.ContextSwitches, st.Preemptions, st.Migrations, st.IdleTime)
}
