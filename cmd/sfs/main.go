// Command sfs reproduces the paper's evaluation (§4): surplus fair
// scheduling against its baselines and the GMS ideal, simulated and on the
// wall-clock runtime. `sfs <command> -h` lists a command's flags.
//
//	sfs sim [-sched sfs] [-cpus 2] [-weights 1,10,1] [-duration 30s] [-quantum 200ms] [-seed 1]
//	sfs paper [-iters 20000] [-csv dir] [all|fig1|fig3|fig4|fig5|fig6a|fig6b|fig6c|table1|fig7|partition|scalep]
//	sfs live [-policies sfs,sfq,timeshare] [flags] [fair|latency|cluster|steal]
//
// sim prints each weighted compute-bound task's share against its GMS
// ideal. paper prints artifacts of the paper in the paper's format; -csv
// also writes the plotted series. live runs the 4:3:2:1 weighted tiers
// under each policy on the wall-clock runtime: fair is Figure 6(b)'s share
// table, latency the Figure 6(c) reprise, cluster the tiers over -machines
// runtimes (DESIGN.md §11), and steal the work-stealing ablation (§12). A
// bad flag value prints a message naming the flag and exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// commands maps each subcommand to its implementation, which defines its
// flags on fs, parses args with parse and writes its report to stdout.
var commands = map[string]func(fs *flag.FlagSet, args []string, stdout io.Writer) error{
	"sim":   sim,
	"paper": paper,
	"live":  live,
}

// run executes one command line and returns the exit status: 0 on success,
// 2 for a bad invocation (reported on stderr), 1 for any other failure.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 || commands[args[0]] == nil {
		fmt.Fprintln(stderr, "usage: sfs sim|paper|live [flags] [word]; sfs <command> -h lists the flags")
		return 2
	}
	fs := flag.NewFlagSet("sfs "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	err := commands[args[0]](fs, args[1:], stdout)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errParse): // the flag package already reported it
		return 2
	}
	fmt.Fprintf(stderr, "sfs %s: %v\n", args[0], err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// usageError is a bad flag value or command word: run reports it and exits 2.
type usageError string

func (e usageError) Error() string { return string(e) }

// errParse is a command line the flag package rejected and already
// reported.
var errParse = errors.New("bad command line")

// parse parses args into fs, with the flags before or after one optional
// command word, and returns the word: def when there is none, a usage error
// when it is not one of words (a command without words takes none).
func parse(fs *flag.FlagSet, args []string, def string, words ...string) (string, error) {
	word := def
	err := fs.Parse(args)
	if err == nil && fs.NArg() > 0 && len(words) > 0 {
		if word = fs.Arg(0); !slices.Contains(words, word) {
			return "", usageError(fmt.Sprintf("unknown word %q (valid: %s)", word, strings.Join(words, ", ")))
		}
		err = fs.Parse(fs.Args()[1:])
	}
	switch {
	case errors.Is(err, flag.ErrHelp):
		return "", err
	case err != nil:
		return "", errParse
	case fs.NArg() > 0:
		return "", usageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}
	return word, nil
}

// rule is one flag-validation condition and the message naming the flag if
// it fails.
type rule struct {
	ok  bool
	msg string
}

// check returns the first failed rule as a usage error.
func check(rules ...rule) error {
	for _, r := range rules {
		if !r.ok {
			return usageError(r.msg)
		}
	}
	return nil
}

// atLeast is the rule that integer flag name is at least lo.
func atLeast(name string, v, lo int) rule {
	return rule{v >= lo, fmt.Sprintf("-%s must be at least %d, got %d", name, lo, v)}
}
