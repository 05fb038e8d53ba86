package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sfsched/internal/metrics"
)

// runOK runs one command line in-process and returns its stdout, failing
// the test on a nonzero exit.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("sfs %v: exit %d\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// golden reads one file of testdata.
func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenOutput pins the deterministic outputs byte for byte: every
// simulated paper figure (stdout and CSV series), two simulations and the
// lockstep steal ablation. The files in testdata were recorded from the
// three commands this one replaced (paperbench -run X, paperbench -csv,
// sfsim, livecmp -steal); the steal header is the one line that differs,
// by the program name it starts with.
func TestGoldenOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size simulations skipped in -short mode")
	}
	for _, fig := range []string{"fig1", "fig3", "fig4", "fig5", "fig6a", "fig6b", "fig6c", "partition", "scalep"} {
		t.Run(fig, func(t *testing.T) {
			if got, want := runOK(t, "paper", fig), golden(t, fig+".txt"); got != want {
				t.Fatalf("sfs paper %s differs from testdata/%s.txt:\n%s", fig, fig, got)
			}
		})
	}
	t.Run("csv", func(t *testing.T) {
		dir := t.TempDir()
		for _, fig := range []string{"fig1", "fig4", "fig5"} {
			runOK(t, "paper", "-csv", dir, fig)
		}
		files, _ := filepath.Glob(filepath.Join(dir, "*.csv"))
		if len(files) != 7 {
			t.Fatalf("wrote %d CSV files, want 7: %v", len(files), files)
		}
		for _, f := range files {
			got, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if want := golden(t, filepath.Base(f)); string(got) != want {
				t.Fatalf("%s differs from testdata", filepath.Base(f))
			}
		}
	})
	t.Run("sim", func(t *testing.T) {
		if got, want := runOK(t, "sim"), golden(t, "sim.txt"); got != want {
			t.Fatalf("sfs sim differs from testdata/sim.txt:\n%s", got)
		}
		got := runOK(t, "sim", "-sched", "sfq", "-cpus", "4", "-weights", "20,5,1,1,1,1", "-quantum", "100ms")
		if want := golden(t, "sim_sfq.txt"); got != want {
			t.Fatalf("sfs sim -sched sfq differs from testdata/sim_sfq.txt:\n%s", got)
		}
	})
	t.Run("steal", func(t *testing.T) {
		want := strings.Replace(golden(t, "steal.txt"), "livecmp:", "sfs:", 1)
		if got := runOK(t, "live", "steal"); got != want {
			t.Fatalf("sfs live steal differs from testdata/steal.txt:\n%s", got)
		}
	})
}

// TestTimedScenarios checks the timing-based artifacts, whose numbers vary
// run to run, by their headers and row labels only.
func TestTimedScenarios(t *testing.T) {
	out := runOK(t, "paper", "-iters", "200", "table1")
	for _, want := range []string{"=== Table 1: scheduling overheads (lmbench analogue) ===",
		"Table 1: scheduling overheads (ns/op, 200 iters)", "syscall overhead", "exec()",
		"fork() (sched add+remove)", "Context switch (16 proc/ 64KB)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
	out = runOK(t, "paper", "fig7", "-iters", "200")
	for _, want := range []string{"=== Figure 7: context switch cost vs. process count ===",
		"processes  timeshare  SFS", "\n2 ", "\n50 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 output missing %q:\n%s", want, out)
		}
	}
}

func TestParseWeights(t *testing.T) {
	got, err := parseWeights("1, 10,0.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 10, 0.5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseWeightsErrors(t *testing.T) {
	for _, bad := range []string{"", "a", "1,,2", "0", "-1", "1,-2"} {
		if _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights(%q) did not fail", bad)
		}
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	s1 := &metrics.Series{Name: "T1", X: []float64{0, 1}, Y: []float64{10, 20}}
	s2 := &metrics.Series{Name: "T2", X: []float64{0, 1}, Y: []float64{5}}
	var b strings.Builder
	if err := writeSeriesCSV(&b, s1, s2); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines %d:\n%s", len(lines), b.String())
	}
	if lines[0] != "time_s,T1,T2" {
		t.Fatalf("header %q", lines[0])
	}
	if lines[2] != "1.000000,20," {
		t.Fatalf("ragged row %q", lines[2])
	}
	b.Reset()
	if err := writeSeriesCSV(&b); err != nil || b.Len() != 0 {
		t.Fatalf("empty series should be a no-op, wrote %q (%v)", b.String(), err)
	}
	if err := writeSeriesCSV(&b, &metrics.Series{Name: `a,"b"`}); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != "time_s,\"a,\"\"b\"\"\"\n" {
		t.Fatalf("quoted header %q", got)
	}
}
