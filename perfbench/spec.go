package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// decl is one metric declaration of BENCHMARK.json: the parts the program's
// output must match.
type decl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark checks its own output
// against, so the file and the program cannot drift apart.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []decl `json:"end_to_end"`
	PerLayer []decl `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (s *spec) workloadNames() []string {
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	return names
}

// units maps every declared metric name to its unit.
func (s *spec) units() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]decl(nil), s.EndToEnd...), s.PerLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}
