// Build-and-run smoke tests for every binary in the repository: the example
// programs (fairserver once per live scheduling policy) and the paper and
// live subcommands of cmd/sfs. Each runs end-to-end (tiny iteration counts where the binary
// accepts them) so CI exercises the full wiring — facade, machine,
// workloads, experiments, policy factories, CSV output — not just the
// library packages.
package sfsched_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sfsched"
)

// runBinary executes `go run ./<pkg> args...` from the repository root and
// returns its combined output.
func runBinary(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", "./" + pkg}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run ./%s %v: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	cases := []struct {
		pkg  string
		args []string
		want string // substring the output must contain
	}{
		{"examples/quickstart", nil, "task2"},
		{"examples/hierarchy", nil, "class"},
		{"examples/videoserver", nil, "mpeg"},
		{"examples/webhosting", nil, "gold"},
		{"examples/fairserver", []string{"-duration", "300ms"}, "jain"},
		{"examples/cluster", []string{"-machines", "2", "-workers", "2",
			"-duration", "300ms", "-migrate-every", "100ms"}, "jain"},
	}
	for _, c := range cases {
		t.Run(filepath.Base(c.pkg), func(t *testing.T) {
			t.Parallel()
			out := runBinary(t, c.pkg, c.args...)
			if !strings.Contains(strings.ToLower(out), c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
		})
	}
}

// TestFairserverPolicySmoke runs examples/fairserver under every live policy
// PolicyByName constructs: each must serve the weighted load end to end —
// sharded dispatch included — and report its scheduler name in the per-shard
// table plus a final Jain line.
func TestFairserverPolicySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	for _, policy := range sfsched.LivePolicies() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Parallel()
			out := runBinary(t, "examples/fairserver",
				"-policy", policy, "-duration", "150ms", "-per-tier", "2")
			low := strings.ToLower(out)
			if !strings.Contains(low, "jain") {
				t.Fatalf("output missing jain line:\n%s", out)
			}
			if !strings.Contains(low, "policy "+policy) {
				t.Fatalf("output does not name policy %q:\n%s", policy, out)
			}
		})
	}
	t.Run("unknown-policy", func(t *testing.T) {
		t.Parallel()
		cmd := exec.Command("go", "run", "./examples/fairserver", "-policy", "fifo")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("unknown policy accepted:\n%s", out)
		}
		if !strings.Contains(string(out), "unknown policy") {
			t.Fatalf("unhelpful error for unknown policy:\n%s", out)
		}
	})
}

// TestLivecmpSmoke runs the live cross-policy comparison (sfs live fair)
// end to end and checks it reports one fairness row per requested policy.
func TestLivecmpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	out := runBinary(t, "cmd/sfs", "live",
		"-policies", "sfs,timeshare", "-duration", "200ms", "-slice", "5ms", "-v", "fair")
	for _, want := range []string{"SFS", "timeshare", "jain", "worst_err"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sfs live fair output missing %q:\n%s", want, out)
		}
	}
}

// TestLivecmpLatencySmoke runs the live Figure 6(c) latency reprise (sfs
// live latency) end to end: one row per (policy, preempt on/off) cell with
// the interactive quantile columns, and at least one preemption recorded for
// the Preempter-capable policy cell.
func TestLivecmpLatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	out := runBinary(t, "cmd/sfs", "live", "latency",
		"-policies", "sfs,timeshare", "-hogs", "4", "-duration", "250ms", "-slice", "5ms")
	for _, want := range []string{"SFS", "timeshare", "p95_ms", "preemptions", "preempt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sfs live latency output missing %q:\n%s", want, out)
		}
	}
}

// TestLivecmpClusterSmoke runs the live cluster tier demo (sfs live
// cluster) end to end: per-machine share tables plus the cross-policy
// cluster summary, with k=1 placement so the run exercises the migrator
// against a deliberately imbalanced cluster.
func TestLivecmpClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	out := runBinary(t, "cmd/sfs", "live", "cluster",
		"-machines", "3", "-workers", "2", "-k", "1", "-policies", "sfs",
		"-duration", "400ms", "-slice", "5ms", "-migrate-every", "100ms")
	for _, want := range []string{"per-machine shares", "machine", "cluster jain", "migrations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sfs live cluster output missing %q:\n%s", want, out)
		}
	}
}

// TestLivecmpLatencyEnforceSmoke runs the live latency reprise against
// adversarial hogs that never poll their preemption flag, with involuntary
// slice enforcement armed.
func TestLivecmpLatencyEnforceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	out := runBinary(t, "cmd/sfs", "live", "latency",
		"-enforce", "-adversarial", "-policies", "sfs,timeshare", "-hogs", "4", "-duration", "250ms")
	for _, want := range []string{"SFS", "timeshare", "p95_ms", "handoffs", "enforcement armed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sfs live latency -enforce output missing %q:\n%s", want, out)
		}
	}
}

// TestPaperbenchSmoke runs the paper subcommand of cmd/sfs as a binary: one
// timeline figure with CSV output and the overhead table.
func TestPaperbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	// One timeline experiment end-to-end, with CSV output.
	dir := t.TempDir()
	out := runBinary(t, "cmd/sfs", "paper", "-csv", dir, "fig1")
	if !strings.Contains(out, "Figure 1") {
		t.Fatalf("fig1 output missing header:\n%s", out)
	}
	// The overhead table with a tiny iteration budget.
	out = runBinary(t, "cmd/sfs", "paper", "-iters", "500", "table1")
	if !strings.Contains(out, "Table 1") {
		t.Fatalf("table1 output missing header:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("-csv wrote no files")
	}
}

// TestCLIBadFlagsExit2 runs cmd/sfs with invalid flag values and command
// words: each must print a message naming the culprit and exit 2, never
// panic. Every value is rejected before a worker, shard or machine starts.
func TestCLIBadFlagsExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "sfs")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/sfs").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/sfs: %v\n%s", err, out)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"sim", "-weights", "1,-2"}, "weight -2"},
		{[]string{"sim", "-cpus", "0"}, "-cpus"},
		{[]string{"sim", "-quantum", "0"}, "-quantum"},
		{[]string{"sim", "-quantum", "-5ms"}, "-quantum"},
		{[]string{"sim", "-duration", "0"}, "-duration"},
		{[]string{"sim", "-sched", "fifo"}, "fifo"},
		{[]string{"paper", "fig9"}, "fig9"},
		{[]string{"paper", "-iters", "0", "fig7"}, "-iters"},
		{[]string{"paper", "-iters", "-3", "fig7"}, "-iters"},
		{[]string{"live", "-shards", "8", "-workers", "2"}, "-shards 8"},
		{[]string{"live", "-duration", "0"}, "-duration"},
		{[]string{"live", "-duration", "-1s"}, "-duration"},
		{[]string{"live", "-slice", "-1ms"}, "-slice"},
		{[]string{"live", "-grant", "-1ms", "latency"}, "-grant"},
		{[]string{"live", "-workers", "-1"}, "-workers"},
		{[]string{"live", "-shards", "-1"}, "-shards"},
		{[]string{"live", "-per-tier", "-1"}, "-per-tier"},
		{[]string{"live", "-hogs", "-1", "latency"}, "-hogs"},
		{[]string{"live", "-machines", "-1", "cluster"}, "-machines"},
		{[]string{"live", "-k", "-1", "cluster"}, "-k"},
		{[]string{"live", "-ticks", "-1", "steal"}, "-ticks"},
		{[]string{"live", "-policies", "fifo"}, "fifo"},
		{[]string{"live", "sideways"}, "sideways"},
		{[]string{"bench"}, "usage"},
	}
	for _, c := range cases {
		t.Run(strings.Join(c.args, ""), func(t *testing.T) {
			out, err := exec.Command(bin, c.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("sfs %v: err = %v, want exit status 2\n%s", c.args, err, out)
			}
			if strings.Contains(string(out), "panic") || !strings.Contains(string(out), c.want) {
				t.Fatalf("sfs %v: output does not name %q:\n%s", c.args, c.want, out)
			}
		})
	}
}
