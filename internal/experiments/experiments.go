// Package experiments regenerates every table and figure of the paper's
// evaluation (§4), each a pure function from a parameter struct with paper
// defaults to a result that renders itself as text. Scenarios lists them
// for `sfs paper`, the root bench_test.go wraps each in a benchmark, and the
// tests assert the paper's qualitative shapes. The live runs reprise the
// comparison on the wall-clock runtime for `sfs live`. DESIGN.md §4 indexes
// the experiments and records paper against measured.
package experiments

import (
	"fmt"
	"math"
	"slices"

	"sfsched/internal/bvt"
	"sfsched/internal/core"
	"sfsched/internal/gms"
	"sfsched/internal/lottery"
	"sfsched/internal/machine"
	"sfsched/internal/metrics"
	"sfsched/internal/partition"
	"sfsched/internal/sched"
	"sfsched/internal/sfq"
	"sfsched/internal/simtime"
	"sfsched/internal/stride"
	"sfsched/internal/timeshare"
)

// Kind names a scheduler configuration.
type Kind string

// Scheduler kinds.
const (
	SFS          Kind = "sfs"               // surplus fair scheduling (exact)
	SFSHeuristic Kind = "sfs-heuristic"     // SFS with the k=20 pick heuristic
	SFSFixed     Kind = "sfs-fixed"         // SFS with 10^4 fixed-point tags
	SFSNoAdjust  Kind = "sfs-noadjust"      // ablation: SFS without readjustment
	SFQ          Kind = "sfq"               // start-time fair queueing (plain)
	SFQReadjust  Kind = "sfq+readjust"      // SFQ + weight readjustment
	Timeshare    Kind = "timeshare"         // Linux 2.2-style time sharing
	Stride       Kind = "stride"            // stride scheduling (plain)
	BVT          Kind = "bvt"               // borrowed virtual time (plain)
	Lottery      Kind = "lottery"           // lottery scheduling (plain)
	Partitioned  Kind = "partitioned"       // per-CPU SFQ, static placement
	PartRebal    Kind = "partitioned+rebal" // per-CPU SFQ, 1s rebalance
)

// Kinds lists every scheduler kind, for CLI help and sweep experiments.
func Kinds() []Kind {
	return []Kind{SFS, SFSHeuristic, SFSFixed, SFSNoAdjust, SFQ, SFQReadjust,
		Timeshare, Stride, BVT, Lottery, Partitioned, PartRebal}
}

// NewScheduler constructs the scheduler for kind on p CPUs with the given
// maximum quantum.
func NewScheduler(kind Kind, p int, quantum simtime.Duration) (sched.Scheduler, error) {
	switch kind {
	case SFS:
		return core.New(p, core.WithQuantum(quantum)), nil
	case SFSHeuristic:
		return core.New(p, core.WithQuantum(quantum), core.WithHeuristic(20)), nil
	case SFSFixed:
		return core.New(p, core.WithQuantum(quantum), core.WithFixedPoint(4)), nil
	case SFSNoAdjust:
		return core.New(p, core.WithQuantum(quantum), core.WithoutReadjustment()), nil
	case SFQ:
		return sfq.New(p, sfq.WithQuantum(quantum)), nil
	case SFQReadjust:
		return sfq.New(p, sfq.WithQuantum(quantum), sfq.WithReadjustment()), nil
	case Timeshare:
		return timeshare.New(p), nil
	case Stride:
		return stride.New(p, stride.WithQuantum(quantum)), nil
	case BVT:
		return bvt.New(p, bvt.WithQuantum(quantum)), nil
	case Lottery:
		return lottery.New(p, lottery.WithQuantum(quantum)), nil
	case Partitioned:
		return partition.New(p, partition.WithQuantum(quantum)), nil
	case PartRebal:
		return partition.New(p, partition.WithQuantum(quantum),
			partition.WithRebalance(simtime.Second)), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheduler kind %q", kind)
	}
}

// MustScheduler is NewScheduler for known-good kinds.
func MustScheduler(kind Kind, p int, quantum simtime.Duration) sched.Scheduler {
	return must(NewScheduler(kind, p, quantum))
}

// must and mustOK panic on err: experiments build static configurations.
func must[T any](v T, err error) T {
	mustOK(err)
	return v
}

func mustOK(err error) {
	if err != nil {
		panic(err)
	}
}

// Setup is the simulated machine a figure runs on, apart from its
// scheduler kind.
type Setup struct {
	CPUs    int
	Quantum simtime.Duration
	Horizon simtime.Time
	Seed    uint64
}

// machine builds the setup's machine running kind.
func (s Setup) machine(kind Kind) *machine.Machine {
	return machine.New(machine.Config{CPUs: s.CPUs, Scheduler: MustScheduler(kind, s.CPUs, s.Quantum), Seed: s.Seed})
}

// AttachGMS runs a GMS fluid reference beside the machine's scheduler. Call
// it before Run, and Fluid.Advance(horizon) before reading lags.
func AttachGMS(m *machine.Machine, p int) *gms.Fluid {
	f := gms.New(p)
	m.SetHooks(machine.Hooks{
		Runnable:       f.Add,
		Unrunnable:     f.Remove,
		WeightChanging: func(t *sched.Thread, now simtime.Time) { f.Advance(now) },
	})
	return f
}

// Grid is a swept result as the paper tabulates it: one row per swept value
// and one column per measured series. A NaN cell renders as "=".
type Grid struct {
	Title   string
	Headers []string    // the row-label column, then one per series
	Labels  []string    // one per row
	Cols    [][]float64 // one per series, aligned with Labels
	Formats []string    // the Printf verb of each series
	Notes   []string    // an optional last column, "note"
}

// add appends a series column.
func (g *Grid) add(header, format string, values []float64) {
	g.Headers = append(g.Headers, header)
	g.Formats = append(g.Formats, format)
	g.Cols = append(g.Cols, values)
}

// Col returns the series under header.
func (g Grid) Col(header string) []float64 {
	for j, h := range g.Headers[1:] {
		if h == header {
			return g.Cols[j]
		}
	}
	panic(fmt.Sprintf("experiments: %q has no column %q", g.Title, header))
}

// Render formats the grid as a table.
func (g Grid) Render() string {
	t := metrics.Table{Title: g.Title, Headers: g.Headers}
	if g.Notes != nil {
		t.Headers = append(slices.Clip(t.Headers), "note")
	}
	for i, label := range g.Labels {
		row := []string{label}
		for j, col := range g.Cols {
			cell := "="
			if !math.IsNaN(col[i]) {
				cell = fmt.Sprintf(g.Formats[j], col[i])
			}
			row = append(row, cell)
		}
		if g.Notes != nil {
			row = append(row, g.Notes[i])
		}
		t.AddRow(row...)
	}
	return t.String()
}

// labels formats swept integers as row labels.
func labels(xs []int) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprint(x)
	}
	return out
}

// Scenario is one artifact of the paper: `sfs paper <Name>` prints
// "=== Title ===" and the text of each panel Run returns, with iters sizing
// the timing-based ones.
type Scenario struct {
	Name, Title string
	Run         func(iters int) []Panel
}

// Panel is one rendered result, with the series `sfs paper -csv` writes to
// <CSV>.csv ("" = none).
type Panel struct {
	Text   string
	CSV    string
	Series []*metrics.Series
}

// DefaultIters is the iteration count of the overhead micro-benchmarks.
const DefaultIters = 20000

// Scenarios lists the paper's artifacts in order, then the extensions.
var Scenarios = []Scenario{
	{"fig1", "Figure 1: the infeasible weights problem (1 ms quanta)", func(int) []Panel {
		return []Panel{Fig4(Fig1Defaults(SFQ)).panel("fig1"), Fig4(Fig1Defaults(SFS)).panel("fig1")}
	}},
	{"fig3", "Figure 3: efficacy of the scheduling heuristic", func(int) []Panel { return text(Fig3(Fig3Defaults())) }},
	{"fig4", "Figure 4: impact of the weight readjustment algorithm", func(int) []Panel {
		var out []Panel
		for _, kind := range []Kind{SFQ, SFQReadjust, SFS} {
			out = append(out, Fig4(Fig4Defaults(kind)).panel("fig4"))
		}
		return out
	}},
	{"fig5", "Figure 5: the short jobs problem", func(int) []Panel {
		return []Panel{Fig5(Fig5Defaults(SFQ)).panel(), Fig5(Fig5Defaults(SFS)).panel()}
	}},
	{"fig6a", "Figure 6(a): proportionate allocation", func(int) []Panel { return text(Fig6a(Fig6aDefaults(SFS))) }},
	{"fig6b", "Figure 6(b): application isolation", func(int) []Panel { return text(Fig6b(Fig6bDefaults())) }},
	{"fig6c", "Figure 6(c): interactive performance", func(int) []Panel { return text(Fig6c(Fig6cDefaults())) }},
	{"table1", "Table 1: scheduling overheads (lmbench analogue)", func(iters int) []Panel { return text(Table1(iters)) }},
	{"fig7", "Figure 7: context switch cost vs. process count", func(iters int) []Panel {
		p := Fig7Params{Procs: Fig7Defaults().Procs, Iters: iters}
		g := Fig7(p)
		x := make([]float64, len(p.Procs))
		for i, n := range p.Procs {
			x[i] = float64(n)
		}
		return []Panel{{g.Render(), "fig7", []*metrics.Series{
			{Name: "timeshare_ns", X: x, Y: g.Col("timeshare")}, {Name: "sfs_ns", X: x, Y: g.Col("SFS")}}}}
	}},
	{"partition", "Extension: the partitioning alternative of §1.2", func(int) []Panel {
		return text(Partition(PartitionDefaults()))
	}},
	{"scalep", "Extension: SFS fidelity vs. processor count (§4.1 note)", func(int) []Panel {
		return text(ScaleP(ScalePDefaults(SFS)))
	}},
}

// text is the one panel of a result without CSV series.
func text(r interface{ Render() string }) []Panel { return []Panel{{Text: r.Render()}} }
