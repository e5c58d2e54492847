package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
)

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPrintedNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !namePattern.MatchString(d.Name) || len(d.Name) > 64 {
			t.Errorf("metric name %q", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloadNames {
		if !namePattern.MatchString(w) {
			t.Errorf("workload name %q", w)
		}
	}
}

func TestBenchmarkFileMatchesPrintedNames(t *testing.T) {
	f := readBenchmarkFile(t)
	var workloads []string
	for _, w := range f.Workloads {
		workloads = append(workloads, w.Name)
	}
	if !reflect.DeepEqual(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, the command runs %v", workloads, workloadNames)
	}
	declared := func(defs []metricDef) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if want := declared(endToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nthe command prints:\n%v", e2e, want)
	}
	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	if want := declared(perLayer); !reflect.DeepEqual(layer, want) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nthe command prints:\n%v", sortedKeys(layer), sortedKeys(want))
	}
}

func sortedKeys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func TestRenderRequiresExactlyTheDeclaredNames(t *testing.T) {
	vals := metricSet{}
	for _, d := range endToEnd {
		vals[d.Name] = 1
	}
	if _, err := vals.render(endToEnd); err != nil {
		t.Fatalf("complete set rejected: %v", err)
	}
	vals["stray"] = 1
	if _, err := vals.render(endToEnd); err == nil {
		t.Error("an undeclared metric was printed")
	}
	delete(vals, "stray")
	delete(vals, endToEnd[0].Name)
	if _, err := vals.render(endToEnd); err == nil {
		t.Error("a declared metric went missing without an error")
	}
}
