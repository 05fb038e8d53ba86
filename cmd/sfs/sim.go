package main

import (
	"flag"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"sfsched/internal/experiments"
	"sfsched/internal/simtime"
)

// sim runs compute-bound tasks with the given weights on a simulated
// machine and reports their shares against the GMS ideal.
func sim(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	kind := fs.String("sched", "sfs", fmt.Sprint("scheduler kind: ", experiments.Kinds()))
	cpus := fs.Int("cpus", 2, "number of processors")
	weightsArg := fs.String("weights", "1,10,1", "comma-separated task weights")
	duration := fs.Duration("duration", 30*time.Second, "simulated duration")
	quantum := fs.Duration("quantum", 200*time.Millisecond, "maximum quantum")
	seed := fs.Uint64("seed", 1, "workload RNG seed")
	if _, err := parse(fs, args, ""); err != nil {
		return err
	}
	weights, err := parseWeights(*weightsArg)
	setup := experiments.Setup{CPUs: *cpus, Quantum: simtime.Duration(quantum.Microseconds()),
		Horizon: simtime.Time(duration.Microseconds()), Seed: *seed}
	if err := check(
		rule{err == nil, fmt.Sprint(err)},
		atLeast("cpus", *cpus, 1),
		rule{setup.Quantum > 0, fmt.Sprintf("-quantum must be at least 1µs, got %v", *quantum)},
		rule{setup.Horizon > 0, fmt.Sprintf("-duration must be at least 1µs, got %v", *duration)},
		rule{slices.Contains(experiments.Kinds(), experiments.Kind(*kind)),
			fmt.Sprintf("unknown -sched %q (kinds: %v)", *kind, experiments.Kinds())},
	); err != nil {
		return err
	}
	fmt.Fprint(stdout, experiments.Sim(experiments.Kind(*kind), weights, setup))
	return nil
}

func parseWeights(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad weight %q: %v", p, err)
		}
		if w <= 0 {
			return nil, fmt.Errorf("weight %g must be positive", w)
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no weights given")
	}
	return out, nil
}
