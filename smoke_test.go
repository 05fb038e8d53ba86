// Build-and-run smoke tests for every binary in the repository: the example
// programs (fairserver once per live scheduling policy), cmd/paperbench and
// cmd/livecmp. Each runs end-to-end (tiny iteration counts where the binary
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
		{"examples/latency", nil, "ms"},
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

// TestLivecmpSmoke runs the wall-clock cross-policy comparison end to end
// and checks it reports one fairness row per requested policy.
func TestLivecmpSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	out := runBinary(t, "cmd/livecmp",
		"-policies", "sfs,timeshare", "-duration", "200ms", "-slice", "5ms", "-v")
	for _, want := range []string{"SFS", "timeshare", "jain", "worst_err"} {
		if !strings.Contains(out, want) {
			t.Fatalf("livecmp output missing %q:\n%s", want, out)
		}
	}
}

// TestLivecmpLatencySmoke runs the Figure 6(c) latency reprise end to end:
// one row per (policy, preempt on/off) cell with the interactive quantile
// columns, and at least one preemption recorded for the Preempter-capable
// policy cell.
func TestLivecmpLatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	out := runBinary(t, "cmd/livecmp",
		"-latency", "-policies", "sfs,timeshare", "-hogs", "4",
		"-duration", "250ms", "-slice", "5ms")
	for _, want := range []string{"SFS", "timeshare", "p95_ms", "preemptions", "preempt"} {
		if !strings.Contains(out, want) {
			t.Fatalf("livecmp -latency output missing %q:\n%s", want, out)
		}
	}
}

// TestLivecmpClusterSmoke runs the cluster tier demo end to end: per-machine
// share tables plus the cross-policy cluster summary, with k=1 placement so
// the run exercises the migrator against a deliberately imbalanced cluster.
func TestLivecmpClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	out := runBinary(t, "cmd/livecmp",
		"-cluster", "-machines", "3", "-workers", "2", "-k", "1",
		"-policies", "sfs", "-duration", "400ms", "-slice", "5ms",
		"-migrate-every", "100ms")
	for _, want := range []string{"per-machine shares", "machine", "cluster jain", "migrations"} {
		if !strings.Contains(out, want) {
			t.Fatalf("livecmp -cluster output missing %q:\n%s", want, out)
		}
	}
}

// TestLivecmpLatencyEnforceSmoke runs the latency reprise against
// adversarial hogs that never poll their preemption flag, with involuntary
// slice enforcement armed.
func TestLivecmpLatencyEnforceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	out := runBinary(t, "cmd/livecmp",
		"-latency", "-enforce", "-adversarial", "-policies", "sfs,timeshare",
		"-hogs", "4", "-duration", "250ms")
	for _, want := range []string{"SFS", "timeshare", "p95_ms", "handoffs", "enforcement armed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("livecmp -latency -enforce output missing %q:\n%s", want, out)
		}
	}
}

func TestPaperbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	// One timeline experiment end-to-end, with CSV output.
	dir := t.TempDir()
	out := runBinary(t, "cmd/paperbench", "-run", "fig1", "-csv", dir)
	if !strings.Contains(out, "Figure 1") {
		t.Fatalf("fig1 output missing header:\n%s", out)
	}
	// The overhead table with a tiny iteration budget.
	out = runBinary(t, "cmd/paperbench", "-run", "table1", "-iters", "500")
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

// TestCLIBadFlagsExit2 runs the command-line tools with invalid flag values:
// each must print a message naming the flag and exit 2, never panic.
func TestCLIBadFlagsExit2(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke tests skipped in -short mode")
	}
	dir := t.TempDir()
	for _, pkg := range []string{"sfsim", "livecmp"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, pkg), "./cmd/"+pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build ./cmd/%s: %v\n%s", pkg, err, out)
		}
	}
	cases := []struct {
		bin  string
		args []string
		want string
	}{
		{"sfsim", []string{"-weights", "1,-2"}, "weight -2"},
		{"sfsim", []string{"-cpus", "0"}, "-cpus"},
		{"sfsim", []string{"-quantum", "0"}, "-quantum"},
		{"sfsim", []string{"-quantum", "-5ms"}, "-quantum"},
		{"livecmp", []string{"-shards", "8", "-workers", "2"}, "-shards 8"},
	}
	for _, c := range cases {
		t.Run(c.bin+strings.Join(c.args, ""), func(t *testing.T) {
			out, err := exec.Command(filepath.Join(dir, c.bin), c.args...).CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s %v: err = %v, want exit status 2\n%s", c.bin, c.args, err, out)
			}
			if strings.Contains(string(out), "panic") || !strings.Contains(string(out), c.want) {
				t.Fatalf("%s %v: output does not name %q:\n%s", c.bin, c.args, c.want, out)
			}
		})
	}
}
