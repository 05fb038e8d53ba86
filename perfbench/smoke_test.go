package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// smokeWindow is each workload's window: short, but long enough to collect
// the 1000 latency samples a p99 needs even under the race detector.
var smokeWindow = map[string]time.Duration{
	"open-mixed":    500 * time.Millisecond,
	"saturated":     2 * time.Second,
	"cluster-churn": 2 * time.Second,
	"sim-paper":     100 * time.Millisecond,
}

// TestSmoke runs every workload of BENCHMARK.json briefly, untraced and
// traced, and checks that each declared metric is emitted with its unit and
// that every correctness check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for a few seconds")
	}
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sp.workloadNames() {
		for _, traced := range []bool{false, true} {
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			var out, errs bytes.Buffer
			code := run(&out, &errs, "../BENCHMARK.json", runConfig{workload: name, seed: 1,
				window: smokeWindow[name], traced: traced, outDir: t.TempDir()})
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if code != 0 {
				t.Fatalf("%s traced=%v: exit %d\n%s%s", name, traced, code, out.String(), errs.String())
			}
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s traced=%v: last line is not the result: %v", name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", name, traced,
					res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, d.Name, m, d.Unit)
				}
			}
		}
	}
}

// A workload name outside BENCHMARK.json is refused without a result line.
func TestUnknownWorkload(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run(&out, &errs, "../BENCHMARK.json", runConfig{workload: "nope", window: time.Second}); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	if out.Len() != 0 {
		t.Fatalf("printed a result for an unknown workload: %q", out.String())
	}
}

// conform catches a metric that is missing, undeclared or in the wrong unit.
func TestConform(t *testing.T) {
	want := []decl{{Name: "a", Unit: "s"}, {Name: "b", Unit: "us"}}
	if bad := conform("x", []metric{{Name: "a", Unit: "s"}, {Name: "b", Unit: "us"}}, want); len(bad) != 0 {
		t.Fatalf("conforming metrics flagged: %v", bad)
	}
	bad := conform("x", []metric{{Name: "a", Unit: "ms"}, {Name: "c", Unit: "s"}}, want)
	if len(bad) != 3 {
		t.Fatalf("want unit, undeclared and missing problems, got %v", bad)
	}
}
