// Command perfbench is the repository benchmark: it runs one named workload
// through the public APIs of internal/rt, internal/cluster and
// internal/machine, checks that every task ran exactly once and that the
// runtimes' invariants hold, and prints every metric by name with its unit.
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
// --trace 0, its per-layer metrics with --trace 1. The lines before it are a
// readable report with the host, the sample count behind every percentile and
// the correctness checks. The exit code is non-zero when a check fails.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration // the measured window of each phase
	traced   bool
	outDir   string // where a traced run writes its spans; "" writes none
}

// workloads maps each workload name of BENCHMARK.json to its driver.
var workloads = map[string]func(runConfig, *report){
	"open-mixed":    runOpenMixed,
	"saturated":     runSaturated,
	"cluster-churn": runChurn,
	"sim-paper":     runSimPaper,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name from BENCHMARK.json")
		seed    = flag.Uint64("seed", 1, "seed for every generated input")
		seconds = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{workload: *name, seed: *seed, traced: *trace == 1,
		window: time.Duration(*seconds * float64(time.Second)), outDir: ".bench_build/perfbench-out"}
	os.Exit(run(os.Stdout, os.Stderr, "BENCHMARK.json", cfg))
}

// run executes one workload and writes the report; it returns the exit code.
func run(stdout, stderr io.Writer, specPath string, cfg runConfig) int {
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	drive, ok := workloads[cfg.workload]
	if !ok || !spec.hasWorkload(cfg.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(spec.workloadNames(), ", "))
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	rep := &report{units: spec.units()}
	rep.note("host: nproc=%d gomaxprocs=%d go=%s %s/%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH, cpuModel())
	rep.note("run: workload=%s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.window.Seconds(), cfg.traced)
	drive(cfg, rep)

	for _, p := range conform("end-to-end", rep.e2e, spec.EndToEnd) {
		rep.check(false, "%s", p)
	}
	if cfg.traced {
		for _, p := range conform("per-layer", rep.layer, spec.PerLayer) {
			rep.check(false, "%s", p)
		}
	}
	rep.printHuman(stdout)
	line, err := rep.resultLine(cfg.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// cpuModel reads the processor model name for the host record, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
