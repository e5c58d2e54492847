package main

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func drawMix(seed int64, n int) []request {
	gens := []genWorkload{{"gen.a", "doc-a"}, {"gen.b", "doc-b"}}
	g := newMixGen(seed, benchmarkNames(), gens, configNames())
	out := make([]request, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestMixSequenceIsSeeded(t *testing.T) {
	a, b := drawMix(7, 2000), drawMix(7, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if reflect.DeepEqual(a, drawMix(8, 2000)) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

func TestPrimingIsTheSameWorkForEverySeed(t *testing.T) {
	shape := func(seed int64) []string {
		var out []string
		for _, r := range drawMix(seed, len(benchmarkNames())+2) {
			out = append(out, r.Kind+" "+r.Bench+" "+r.Config)
		}
		return out
	}
	if a, b := shape(1), shape(99); !reflect.DeepEqual(a, b) {
		t.Fatalf("priming differs between seeds:\n%v\n%v", a, b)
	}
}

func TestMixShape(t *testing.T) {
	builtins := benchmarkNames()
	reqs := drawMix(3, 100_000)
	// The priming set: one new pair of every shipped workload, in order.
	for i, b := range append(append([]string(nil), builtins...), "gen.a", "gen.b") {
		want := map[bool]string{true: "new-pair", false: "generated"}[i < len(builtins)]
		if r := reqs[i]; r.Kind != want || r.Bench != b {
			t.Fatalf("priming request %d is %s %s, want %s %s", i, r.Kind, r.Bench, want, b)
		}
	}
	seen := map[string]bool{}
	kinds := map[string]int{}
	for _, r := range reqs {
		kinds[r.Kind]++
		if r.Kind == "repeat" && !seen[r.key()] {
			t.Fatalf("repeat of a key never issued: %s", r.key())
		}
		if r.Kind != "repeat" && seen[r.key()] {
			t.Fatalf("%s request for a key already issued: %s", r.Kind, r.key())
		}
		if r.Kind == "new-pair" && r.Specs != "" || r.Kind == "generated" && r.Specs == "" {
			t.Fatalf("%s request carries specs %q", r.Kind, r.Specs)
		}
		seen[r.key()] = true
	}
	n := float64(len(reqs))
	newPairs := float64(kinds["new-pair"] + kinds["generated"])
	for what, c := range map[string][2]float64{
		"repeat share":                 {float64(kinds["repeat"]) / n, pRepeat},
		"new-pair share of new keys":   {newPairs / (n - float64(kinds["repeat"])), 1 / float64(len(configNames()))},
		"generated share of new pairs": {float64(kinds["generated"]) / newPairs, 2 / float64(len(builtins)+2)},
	} {
		if got, want := c[0], c[1]; got < want*0.9 || got > want*1.1 {
			t.Errorf("%s %.4f, want about %.4f", what, got, want)
		}
	}
}

// The mix's repeat share comes from the experiment set's request shape,
// which does not depend on the scale; a small one keeps the test quick.
func TestMixSharesMatchTheExperimentSet(t *testing.T) {
	var results atomic.Int64
	r, err := newRunner(runnerOpts{Scale: 2000, Seed: 1, Workers: 2, Progress: func(ev progressEvent) {
		if ev.Kind == "run-done" {
			results.Add(1)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experimentIDs() {
		if _, err := r.runExperiment(id); err != nil {
			t.Fatal(err)
		}
	}
	// Prefetch feeders report a result after the run they join ends, so
	// the last of their events may arrive after the experiment returned.
	for deadline := time.Now().Add(5 * time.Second); results.Load() < expSetResults && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if got, sims := results.Load(), r.counters().Sims; got != expSetResults || sims != expSetSims {
		t.Errorf("the experiment set requests %d results, %d distinct; expSetResults = %d and expSetSims = %d",
			got, sims, expSetResults, expSetSims)
	}
}
