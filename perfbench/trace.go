package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// span is one traced interval at a layer boundary, recorded by the benchmark
// around its calls into the program. Spans of one request or session share
// ID; Parent names the enclosing span of the same ID ("" for the root).
type span struct {
	ID         int64
	Name       string
	Parent     string
	Start, End int64 // ns from the phase's base instant
}

// selfTimes returns, for each span name, every span's self time in µs: its
// duration minus the part of it that its children cover. Spans of one ID
// must be contiguous in spans.
func selfTimes(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for lo := 0; lo < len(spans); {
		hi := lo + 1
		for hi < len(spans) && spans[hi].ID == spans[lo].ID {
			hi++
		}
		group := spans[lo:hi]
		for _, p := range group {
			var kids [][2]int64
			for _, c := range group {
				if c.Parent == p.Name && c.Parent != "" {
					s, e := max(c.Start, p.Start), min(c.End, p.End)
					if e > s {
						kids = append(kids, [2]int64{s, e})
					}
				}
			}
			self := (p.End - p.Start) - covered(kids)
			out[p.Name] = append(out[p.Name], float64(self)/1e3)
		}
		lo = hi
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// reportSpans reports the span count and the median self time of every span
// name (the root's as a per-layer metric), and writes the spans out.
func reportSpans(rep *report, cfg runConfig, root string, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.note("span %-10s self p50 %9.2f us  p99 %9.2f us  (n=%d)", n,
			quantile(self[n], 0.5), quantile(self[n], 0.99), len(self[n]))
	}
	rep.addLayer("trace.spans", float64(len(spans)), "count", 0)
	rep.addLayer("trace."+root+".self_p50_us", quantile(self[root], 0.5), "us", len(self[root]))
	if cfg.outDir == "" {
		return
	}
	path, err := writeSpans(cfg, spans)
	if err != nil {
		rep.check(false, "write spans: %v", err)
		return
	}
	rep.note("spans written to %s", path)
}

func writeSpans(cfg runConfig, spans []span) (string, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"parent\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.ID, s.Name, s.Parent, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
