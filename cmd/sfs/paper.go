package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"sfsched/internal/experiments"
	"sfsched/internal/metrics"
)

// paper prints one scenario of experiments.Scenarios, or all of them.
func paper(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	iters := fs.Int("iters", experiments.DefaultIters, "iterations for the overhead micro-benchmarks (table1, fig7)")
	csvDir := fs.String("csv", "", "directory to write per-figure CSV data (optional)")
	words := []string{"all"}
	for _, sc := range experiments.Scenarios {
		words = append(words, sc.Name)
	}
	name, err := parse(fs, args, "all", words...)
	if err == nil {
		err = check(atLeast("iters", *iters, 1))
	}
	if err == nil && *csvDir != "" {
		err = os.MkdirAll(*csvDir, 0o755)
	}
	if err != nil {
		return err
	}
	for _, sc := range experiments.Scenarios {
		if name != "all" && name != sc.Name {
			continue
		}
		fmt.Fprintf(stdout, "=== %s ===\n", sc.Title)
		for _, p := range sc.Run(*iters) {
			fmt.Fprintln(stdout, p.Text)
			if *csvDir == "" || p.CSV == "" {
				continue
			}
			path := filepath.Join(*csvDir, p.CSV+".csv")
			f, err := os.Create(path)
			if err == nil {
				err = errors.Join(writeSeriesCSV(f, p.Series...), f.Close())
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n", path)
		}
	}
	return nil
}

// writeSeriesCSV writes aligned series as a CSV table for external plotting
// tools (gnuplot, matplotlib): the first column is X, then one column per
// series. Series need not have identical lengths; missing cells are empty.
func writeSeriesCSV(w io.Writer, series ...*metrics.Series) error {
	if len(series) == 0 {
		return nil
	}
	records := [][]string{{"time_s"}}
	rows := 0
	for _, s := range series {
		records[0] = append(records[0], s.Name)
		rows = max(rows, len(s.X))
	}
	for i := 0; i < rows; i++ {
		row := []string{""}
		for _, s := range series {
			if i < len(s.X) {
				row[0] = strconv.FormatFloat(s.X[i], 'f', 6, 64)
				break
			}
		}
		for _, s := range series {
			cell := ""
			if i < len(s.Y) {
				cell = strconv.FormatFloat(s.Y[i], 'g', -1, 64)
			}
			row = append(row, cell)
		}
		records = append(records, row)
	}
	return csv.NewWriter(w).WriteAll(records)
}
