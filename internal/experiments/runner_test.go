package experiments

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"specvec/internal/config"
	"specvec/internal/pipeline"
	"specvec/internal/stats"
	"specvec/internal/workload"
)

// TestDeterminism asserts that the same Options{Scale, Seed} produce
// byte-identical rendered tables in sequential mode and with Workers: 8.
// The experiments cover every submission path: perBenchmark (Fig01),
// the two-config prefetch (Fig07), the full sweep (Fig11), the headline
// batch, and the emulator pool (VecLen).
func TestDeterminism(t *testing.T) {
	exps := []Experiment{
		{ID: "fig1", Run: Fig01},
		{ID: "headline", Run: Headline},
	}
	if !testing.Short() {
		exps = append(exps,
			Experiment{ID: "fig7", Run: Fig07},
			Experiment{ID: "fig11", Run: Fig11},
			Experiment{ID: "veclen", Run: VecLen},
		)
	}
	render := func(workers int) string {
		r := NewRunner(Options{Scale: 20_000, Seed: 1, Workers: workers})
		var sb strings.Builder
		for _, e := range exps {
			tabs, err := e.Run(r)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", e.ID, workers, err)
			}
			for _, tab := range tabs {
				sb.WriteString(tab.Render())
			}
		}
		return sb.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("sequential and parallel renders differ:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", seq, par)
	}
}

// TestRunnerConcurrentHammer drives one Runner from many goroutines
// requesting overlapping keys. Under -race this proves the singleflight
// memo and the simulations themselves are concurrency-safe, and the
// Simulations counter proves each unique key ran exactly once.
func TestRunnerConcurrentHammer(t *testing.T) {
	r := NewRunner(Options{Scale: 10_000, Seed: 1, Workers: 4})
	cfgs := []config.Config{
		config.MustNamed(4, 1, config.ModeV),
		config.MustNamed(4, 1, config.ModeIM),
	}
	benches := []string{"go", "compress", "swim", "applu"}

	type res struct {
		key runKey
		st  *stats.Sim
	}
	const goroutines = 32
	results := make([][]res, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(cfgs)*len(benches); i++ {
				// Each goroutine walks the key space from a different
				// offset so requests overlap in every interleaving.
				idx := (g + i) % (len(cfgs) * len(benches))
				cfg := cfgs[idx/len(benches)]
				bench := benches[idx%len(benches)]
				st, err := r.Run(cfg, bench)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], res{r.key(cfg, bench), st})
			}
		}(g)
	}
	wg.Wait()

	byKey := map[runKey]*stats.Sim{}
	for _, rs := range results {
		for _, x := range rs {
			if prev, ok := byKey[x.key]; ok && prev != x.st {
				t.Errorf("key %+v returned two distinct results", x.key)
			}
			byKey[x.key] = x.st
		}
	}
	if want := int64(len(cfgs) * len(benches)); r.Simulations() != want {
		t.Errorf("executed %d simulations for %d unique keys", r.Simulations(), want)
	}
}

// TestSweepConcurrentHammer drives overlapping sweeps from many
// goroutines at one Runner: each sends a rotated, truncated RunAll batch
// so the batches overlap but never coincide, then the whole sweep.
// Concurrent batches share benchmark recordings while the memo
// deduplicates their specs; under -race this proves that sharing is
// concurrency-safe, and the Simulations counter proves each unique key
// ran exactly once.
func TestSweepConcurrentHammer(t *testing.T) {
	r := NewRunner(Options{Scale: 8_000, Seed: 1, Workers: 4})
	specs := sweepSuite()
	unique := map[runKey]bool{}
	for _, s := range specs {
		unique[r.key(s.Cfg, s.Bench)] = true
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rot := append(append([]RunSpec(nil), specs[g%len(specs):]...), specs[:g%len(specs)]...)
			if _, err := r.RunAll(rot[:len(rot)-g%4]); err != nil {
				t.Error(err)
			}
			if _, err := r.RunAll(specs); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if got, want := r.Simulations(), int64(len(unique)); got != want {
		t.Errorf("executed %d simulations for %d unique keys", got, want)
	}
}

// TestRunAllOrderAndPrefetch checks that RunAll returns results in spec
// order and that a Prefetch of the same fan-out is fully deduplicated.
func TestRunAllOrderAndPrefetch(t *testing.T) {
	r := NewRunner(Options{Scale: 10_000, Seed: 1, Workers: 4})
	cfg := config.MustNamed(4, 1, config.ModeV)
	specs := suiteSpecs(cfg)
	r.Prefetch(specs)
	sims, err := r.RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sims) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(sims), len(specs))
	}
	for i, st := range sims {
		if st == nil {
			t.Fatalf("spec %d: nil stats", i)
		}
		again, err := r.Run(specs[i].Cfg, specs[i].Bench)
		if err != nil {
			t.Fatal(err)
		}
		if again != st {
			t.Errorf("spec %d (%s): re-run not memoised", i, specs[i].Bench)
		}
	}
	if got, want := r.Simulations(), int64(len(specs)); got != want {
		t.Errorf("Prefetch+RunAll executed %d simulations, want %d", got, want)
	}
}

// TestRunAllPropagatesError checks that a bad spec fails the whole batch
// with a deterministic (first-in-spec-order) error.
func TestRunAllPropagatesError(t *testing.T) {
	r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 2})
	cfg := config.MustNamed(4, 1, config.ModeV)
	_, err := r.RunAll([]RunSpec{
		{Cfg: cfg, Bench: "go"},
		{Cfg: cfg, Bench: "no-such-benchmark"},
	})
	if err == nil || !strings.Contains(err.Error(), "no-such-benchmark") {
		t.Errorf("want unknown-benchmark error, got %v", err)
	}
}

// TestAppendAggregatesSkipsEmpty covers the empty-benchmark-class bug:
// an empty class must contribute no aggregate row at all, never a named
// row with nil cells (which downstream consumers index into).
func TestAppendAggregatesSkipsEmpty(t *testing.T) {
	base := []Row{{Name: "only", Cells: []float64{1, 2}}}
	vals := [][]float64{{1, 2}}

	rows := appendAggregates(base, nil, vals, vals)
	var names []string
	for _, r := range rows {
		names = append(names, r.Name)
		if r.Cells == nil {
			t.Errorf("row %s has nil cells", r.Name)
		}
	}
	if want := []string{"only", "FP", "Spec95"}; strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("rows = %v, want %v", names, want)
	}

	// A table built from these rows must render without panicking and
	// without the empty class's aggregate.
	tab := &Table{ID: "t", Title: "empty-class", Columns: []string{"a", "b"}, Rows: rows}
	out := tab.Render()
	if strings.Contains(out, "INT") {
		t.Errorf("render contains aggregate for empty class:\n%s", out)
	}
}

// liveRun is the reference the recording paths are held to: the
// benchmark built at opts' scale and seed and simulated under cfg by
// live functional emulation, with no recording anywhere.
func liveRun(t *testing.T, opts Options, cfg config.Config, bench string) *stats.Sim {
	t.Helper()
	b, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := pipeline.New(cfg, b.Build(opts.Scale, opts.Seed))
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(uint64(opts.Scale))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSharedTraceIdentical runs a multi-config sweep on one Runner and
// requires every result to match live emulation of the same run — the
// record-once/replay-many layer must be invisible in the results —
// while the counters prove it recorded once per benchmark and replayed
// every simulation, the recording leader's included.
func TestSharedTraceIdentical(t *testing.T) {
	cfgs := []config.Config{
		config.MustNamed(4, 1, config.ModeNoIM),
		config.MustNamed(4, 1, config.ModeIM),
		config.MustNamed(4, 1, config.ModeV),
	}
	opts := Options{Scale: 15_000, Seed: 1, Workers: 4}
	r := NewRunner(opts)
	for _, cfg := range cfgs {
		specs := suiteSpecs(cfg)
		sims, err := r.RunAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, st := range sims {
			if st.String() != liveRun(t, opts, cfg, specs[i].Bench).String() {
				t.Errorf("%s/%s: trace sharing changed simulation statistics", cfg.Name, specs[i].Bench)
			}
		}
	}

	nbench := int64(len(workload.Names()))
	if got := r.TraceRecordings(); got != nbench {
		t.Errorf("recorded %d traces, want %d", got, nbench)
	}
	// 3 configs per benchmark, every one of them replayed.
	if got, want := r.TraceReplays(), 3*nbench; got != want {
		t.Errorf("replayed %d runs, want %d", got, want)
	}
	if got, want := r.Simulations(), 3*nbench; got != want {
		t.Errorf("executed %d simulations, want %d", got, want)
	}
}

// TestPrefetchBounded submits a sweep far larger than the worker pool and
// checks submission itself stays bounded: Prefetch must not spawn one
// goroutine per spec ahead of the semaphore.
func TestPrefetchBounded(t *testing.T) {
	r := NewRunner(Options{Scale: 8_000, Seed: 1, Workers: 2})
	var cfgs []config.Config
	for _, ports := range []int{1, 2, 4} {
		for _, mode := range []config.Mode{config.ModeNoIM, config.ModeIM, config.ModeV} {
			cfgs = append(cfgs, config.MustNamed(4, ports, mode))
		}
	}
	specs := suiteSpecs(cfgs...) // 9 × 12 = 108 specs
	before := runtime.NumGoroutine()
	r.Prefetch(specs)
	after := runtime.NumGoroutine()
	// 2 feeders plus whatever simulations already started; anything near
	// len(specs) means the fan-out is unbounded again.
	if delta := after - before; delta > len(specs)/4 {
		t.Errorf("Prefetch spawned ~%d goroutines for %d specs with 2 workers", delta, len(specs))
	}
	// Drain so the feeders finish before the test ends.
	if _, err := r.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if got, want := r.Simulations(), int64(len(specs)); got != want {
		t.Errorf("executed %d simulations, want %d", got, want)
	}
}

// TestWorkersDefault checks the worker-pool sizing rules.
func TestWorkersDefault(t *testing.T) {
	if w := NewRunner(Options{}).Opts().Workers; w < 1 {
		t.Errorf("default workers = %d", w)
	}
	if w := NewRunner(Options{Workers: -3}).Opts().Workers; w < 1 {
		t.Errorf("negative workers not defaulted: %d", w)
	}
	if w := NewRunner(Options{Workers: 1}).Opts().Workers; w != 1 {
		t.Errorf("sequential mode not preserved: %d", w)
	}
}

// TestSuiteSpecsOrder pins the fan-out order: configs outermost,
// benchmarks in presentation order within each config.
func TestSuiteSpecsOrder(t *testing.T) {
	a := config.MustNamed(4, 1, config.ModeV)
	b := config.MustNamed(8, 1, config.ModeIM)
	specs := suiteSpecs(a, b)
	names := workload.Names()
	if len(specs) != 2*len(names) {
		t.Fatalf("specs = %d, want %d", len(specs), 2*len(names))
	}
	for i, s := range specs {
		wantCfg, wantBench := a, names[i%len(names)]
		if i >= len(names) {
			wantCfg = b
		}
		if s.Cfg.Name != wantCfg.Name || s.Bench != wantBench {
			t.Fatalf("spec %d = %s/%s, want %s/%s", i, s.Cfg.Name, s.Bench, wantCfg.Name, wantBench)
		}
	}
}
