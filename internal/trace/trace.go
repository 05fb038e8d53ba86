// Package trace exports experiment data in machine-readable form (CSV), so
// that the paper's figures can be regenerated as plots by external tooling
// (gnuplot, matplotlib) from cmd/paperbench -csv output: series writers turn
// metrics.Series into the two-column CSVs the paper's figures plot.
// Scheduling decisions themselves are observed through engine.Recorder,
// which sees every decision of both drivers.
package trace

import (
	"io"
	"strconv"
	"strings"

	"sfsched/internal/metrics"
)

// WriteSeriesCSV writes one or more aligned series as a CSV table: the first
// column is X (seconds), one column per series. Series need not have
// identical lengths; missing cells are left empty.
func WriteSeriesCSV(w io.Writer, series ...*metrics.Series) error {
	if len(series) == 0 {
		return nil
	}
	header := []string{"time_s"}
	maxLen := 0
	for _, s := range series {
		header = append(header, csvEscape(s.Name))
		if len(s.X) > maxLen {
			maxLen = len(s.X)
		}
	}
	if _, err := io.WriteString(w, strings.Join(header, ",")+"\n"); err != nil {
		return err
	}
	for i := 0; i < maxLen; i++ {
		row := make([]string, 0, len(series)+1)
		x := ""
		for _, s := range series {
			if i < len(s.X) {
				x = strconv.FormatFloat(s.X[i], 'f', 6, 64)
				break
			}
		}
		row = append(row, x)
		for _, s := range series {
			if i < len(s.Y) {
				row = append(row, strconv.FormatFloat(s.Y[i], 'g', -1, 64))
			} else {
				row = append(row, "")
			}
		}
		if _, err := io.WriteString(w, strings.Join(row, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// csvEscape quotes a field if it contains CSV metacharacters.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
