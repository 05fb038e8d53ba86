package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
)

// metric is one named measurement. Samples is the number of observations a
// percentile or median was taken over (0 for plain counters and ratios).
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// report accumulates one run's metrics, correctness problems and the
// attempted/failed operation counts of its measured phases.
type report struct {
	e2e       []metric
	layer     []metric
	problems  []string
	notes     []string
	attempted int64
	failed    int64
	units     map[string]string // declared unit of every metric, by name
}

func (r *report) addE2E(name string, v float64, unit string, samples int) {
	r.e2e = append(r.e2e, metric{name, v, unit, samples})
}

func (r *report) addLayer(name string, v float64, unit string, samples int) {
	r.layer = append(r.layer, metric{name, v, unit, samples})
}

// check records a correctness failure when ok is false. Failures fail the
// run; they are not operation failures and never count toward failed.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ops adds one phase's operation counts.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// printHuman writes the readable report: notes, then every metric with its
// unit and, for percentiles and medians, the sample count behind it.
func (r *report) printHuman(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s:\n", title)
		for _, m := range ms {
			s := ""
			if m.Samples > 0 {
				s = fmt.Sprintf("  (n=%d)", m.Samples)
			}
			fmt.Fprintf(w, "  %-32s %14.6g %-6s%s\n", m.Name, m.Value, m.Unit, s)
		}
	}
	section("end-to-end", r.e2e)
	section("per-layer", r.layer)
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "operations: attempted=%d failed=%d failed_frac=%.6g\n", r.attempted, r.failed, failedFrac)
	for _, p := range r.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine renders the machine-readable last line: the end-to-end metrics
// of an untraced run, or the per-layer metrics of a traced one.
func (r *report) resultLine(traced bool) ([]byte, error) {
	ms := r.e2e
	if traced {
		ms = r.layer
	}
	out := jsonResult{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(ms))}
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", m.Name)
		}
		out.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// conform checks that a list of emitted metrics carries exactly the declared
// names with the declared units, each once.
func conform(kind string, got []metric, want []decl) []string {
	var bad []string
	seen := map[string]bool{}
	units := map[string]string{}
	for _, d := range want {
		units[d.Name] = d.Unit
	}
	for _, m := range got {
		u, ok := units[m.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s metric %s is not declared", kind, m.Name))
		case seen[m.Name]:
			bad = append(bad, fmt.Sprintf("%s metric %s emitted twice", kind, m.Name))
		case u != m.Unit:
			bad = append(bad, fmt.Sprintf("%s metric %s has unit %q, declared %q", kind, m.Name, m.Unit, u))
		}
		seen[m.Name] = true
	}
	var missing []string
	for _, d := range want {
		if !seen[d.Name] {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		bad = append(bad, fmt.Sprintf("%s metrics not emitted: %s", kind, strings.Join(missing, ", ")))
	}
	return bad
}

// quantile returns the q-quantile (0 < q ≤ 1) of xs by nearest rank, or 0
// for an empty slice. xs is left as it was.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	return s[max(0, int(math.Ceil(q*float64(len(s))))-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
