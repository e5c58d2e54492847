package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// memTraceStore is a TraceStore over a plain map, for tests.
type memTraceStore struct {
	mu     sync.Mutex
	m      map[string]*trace.Trace
	loads  int
	stores int
}

func newMemTraceStore() *memTraceStore { return &memTraceStore{m: map[string]*trace.Trace{}} }

func (s *memTraceStore) Load(bench string) (*trace.Trace, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr, ok := s.m[bench]
	if ok {
		s.loads++
	}
	return tr, ok
}

func (s *memTraceStore) Store(bench string, tr *trace.Trace) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[bench] = tr
	s.stores++
}

// sweepSuite is a sweep-shaped fan-out: six configurations over a few
// benchmarks, so every benchmark's recording is shared by several
// configurations submitted in one batch.
func sweepSuite() []RunSpec {
	cfgs := []config.Config{
		config.MustNamed(4, 1, config.ModeV),
		config.MustNamed(4, 1, config.ModeIM),
		config.MustNamed(4, 1, config.ModeNoIM),
		config.MustNamed(8, 1, config.ModeV),
		config.MustNamed(8, 1, config.ModeIM),
		config.MustNamed(8, 1, config.ModeNoIM),
	}
	benches := []string{"compress", "swim", "applu"}
	var specs []RunSpec
	for _, cfg := range cfgs {
		for _, b := range benches {
			specs = append(specs, RunSpec{Cfg: cfg, Bench: b})
		}
	}
	return specs
}

// TestRunnerCancellation cancels a runner mid-run (from a progress event)
// and checks that Run returns the context's error quickly, and that the
// memo entry is evicted rather than poisoned.
func TestRunnerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	r := NewRunner(Options{
		Scale: 200_000, Seed: 1, Workers: 2, Context: ctx,
		Progress: func(ev ProgressEvent) {
			if ev.Kind == RunProgress {
				once.Do(cancel)
			}
		},
	})
	cfg := config.MustNamed(4, 1, config.ModeV)
	_, err := r.Run(cfg, "compress")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	r.mu.Lock()
	_, poisoned := r.cache[r.key(cfg, "compress")]
	r.mu.Unlock()
	if poisoned {
		t.Error("cancelled run left a poisoned memo entry")
	}

	// A fresh runner with a live context recomputes successfully.
	fresh := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 2})
	if _, err := fresh.Run(cfg, "compress"); err != nil {
		t.Fatalf("recompute after cancellation: %v", err)
	}
}

// TestSweepCancellationEvicts cancels a RunAll sweep mid-run and checks
// the eviction contract across the whole batch: no errored memo entry
// survives, no trace entry is left behind by a cancelled recording, and
// a fresh runner recomputes every spec — a cancelled sweep must not
// poison the next one.
func TestSweepCancellationEvicts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	r := NewRunner(Options{
		Scale: 200_000, Seed: 1, Workers: 2, Context: ctx,
		Progress: func(ev ProgressEvent) {
			if ev.Kind == RunProgress {
				once.Do(cancel)
			}
		},
	})
	specs := sweepSuite()
	_, err := r.RunAll(specs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Wait for every claimed entry to settle — eviction happens before an
	// entry's done channel closes — then assert.
	r.mu.Lock()
	inflight := make([]*call, 0, len(r.cache))
	for _, c := range r.cache {
		inflight = append(inflight, c)
	}
	recordings := make([]*traceCall, 0, len(r.traces))
	for _, tc := range r.traces {
		recordings = append(recordings, tc)
	}
	r.mu.Unlock()
	for _, c := range inflight {
		<-c.done
	}
	for _, tc := range recordings {
		<-tc.done
	}
	r.mu.Lock()
	var poisoned, stale []string
	for _, s := range specs {
		if c, ok := r.cache[r.key(s.Cfg, s.Bench)]; ok && c.err != nil {
			poisoned = append(poisoned, s.Cfg.Name+"/"+s.Bench)
		}
	}
	// Every suite benchmark records successfully when not cancelled, so
	// an entry without a trace is the residue of a cancelled recording.
	for bench, tc := range r.traces {
		if tc.tr == nil {
			stale = append(stale, bench+": "+fmt.Sprint(tc.err))
		}
	}
	r.mu.Unlock()
	if len(poisoned) > 0 {
		t.Errorf("cancelled sweep left poisoned memo entries: %v", poisoned)
	}
	if len(stale) > 0 {
		t.Errorf("cancelled recordings left trace entries: %v", stale)
	}

	// The next sweep — a fresh runner with a live context, as the service
	// layer would construct — recomputes from scratch.
	fresh := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 2})
	if _, err := fresh.RunAll(specs); err != nil {
		t.Fatalf("recompute after cancelled sweep: %v", err)
	}
	if fresh.Simulations() != int64(len(specs)) {
		t.Errorf("fresh runner executed %d of %d specs", fresh.Simulations(), len(specs))
	}
}

// TestRunnerCancelledBeforeStart asserts an already-cancelled context
// rejects work without simulating.
func TestRunnerCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 1, Context: ctx})
	_, err := r.RunAll(suiteSpecs(config.MustNamed(4, 1, config.ModeV)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if r.Simulations() != 0 {
		t.Errorf("cancelled runner executed %d simulations", r.Simulations())
	}
}

// TestRunnerProgressEvents runs a tiny sweep and checks the event stream:
// every executed run brackets with RunStarted/RunDone, memoised requests
// emit RunDone with Cached, and at least one RunProgress fires. A RunAll
// batch whose benchmarks each serve several configurations resolves
// exactly one RunDone per spec — RunDone means "a Run call resolved",
// so no simulation may report twice.
func TestRunnerProgressEvents(t *testing.T) {
	var mu sync.Mutex
	counts := map[ProgressKind]int{}
	cached := 0
	r := NewRunner(Options{
		Scale: 20_000, Seed: 1, Workers: 2,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			counts[ev.Kind]++
			if ev.Kind == RunDone && ev.Cached {
				cached++
			}
		},
	})
	cfg := config.MustNamed(4, 1, config.ModeV)
	if _, err := r.Run(cfg, "compress"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(cfg, "compress"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if counts[RunStarted] != 1 {
		t.Errorf("RunStarted fired %d times, want 1", counts[RunStarted])
	}
	if counts[RunDone] != 2 {
		t.Errorf("RunDone fired %d times, want 2", counts[RunDone])
	}
	if cached != 1 {
		t.Errorf("cached RunDone fired %d times, want 1", cached)
	}
	if counts[RunProgress] == 0 {
		t.Error("no RunProgress events over a 20k-instruction run")
	}

	var started, done atomic.Int64
	sweep := NewRunner(Options{
		Scale: 5_000, Seed: 1, Workers: 2,
		Progress: func(ev ProgressEvent) {
			switch ev.Kind {
			case RunStarted:
				started.Add(1)
			case RunDone:
				done.Add(1)
			}
		},
	})
	specs := sweepSuite()
	if _, err := sweep.RunAll(specs); err != nil {
		t.Fatal(err)
	}
	if got := done.Load(); got != int64(len(specs)) {
		t.Errorf("RunAll of %d specs fired %d RunDone events", len(specs), got)
	}
	if got, sims := started.Load(), sweep.Simulations(); got != sims {
		t.Errorf("RunStarted fired %d times for %d simulations", got, sims)
	}
}

// TestRunnerShardProgress checks that a sharded run reports one ShardDone
// per interval.
func TestRunnerShardProgress(t *testing.T) {
	var mu sync.Mutex
	shardDone := 0
	r := NewRunner(Options{
		Scale: 40_000, Seed: 1, Workers: 2, Shards: 4,
		Progress: func(ev ProgressEvent) {
			if ev.Kind == ShardDone {
				mu.Lock()
				shardDone++
				mu.Unlock()
			}
		},
	})
	cfg := config.MustNamed(4, 1, config.ModeV)
	if _, err := r.Run(cfg, "compress"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if shardDone != 4 {
		t.Errorf("ShardDone fired %d times, want 4", shardDone)
	}
}

// TestTraceStoreReuse proves recordings cross Runner instances through a
// TraceStore: runner A records and stores, runner B loads instead of
// re-recording, and both produce identical statistics.
func TestTraceStoreReuse(t *testing.T) {
	store := newMemTraceStore()
	opts := Options{Scale: 10_000, Seed: 1, Workers: 2, Traces: store}
	cfg := config.MustNamed(4, 1, config.ModeV)

	a := NewRunner(opts)
	stA, err := a.Run(cfg, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceRecordings() != 1 || a.TraceLoads() != 0 {
		t.Fatalf("runner A: recordings=%d loads=%d, want 1/0", a.TraceRecordings(), a.TraceLoads())
	}

	b := NewRunner(opts)
	stB, err := b.Run(cfg, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if b.TraceRecordings() != 0 || b.TraceLoads() != 1 {
		t.Fatalf("runner B: recordings=%d loads=%d, want 0/1", b.TraceRecordings(), b.TraceLoads())
	}
	if stA.String() != stB.String() {
		t.Fatalf("stored-trace run diverged:\n%s\nvs\n%s", stA, stB)
	}
}

// TestTraceStoreRejectsShort ensures a stored trace that is truncated
// short of the runner's record target is ignored and re-recorded rather
// than starving replay.
func TestTraceStoreRejectsShort(t *testing.T) {
	const scale = 20_000
	b, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Build(scale, 1)
	mach, err := emu.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err != nil {
		t.Fatal(err)
	}
	short, err := rec.Finish(1_000) // truncated far short of the target
	if err != nil {
		t.Fatal(err)
	}
	if !short.Truncated() {
		t.Fatal("test premise broken: trace not truncated")
	}
	store := newMemTraceStore()
	store.m["compress"] = short

	r := NewRunner(Options{Scale: scale, Seed: 1, Workers: 1, Traces: store})
	if _, err := r.Run(config.MustNamed(4, 1, config.ModeV), "compress"); err != nil {
		t.Fatal(err)
	}
	if r.TraceLoads() != 0 {
		t.Error("a too-short stored trace was loaded")
	}
	if r.TraceRecordings() != 1 {
		t.Errorf("recordings=%d, want a fresh recording", r.TraceRecordings())
	}
}

// TestRunnerHotStats checks hot-path counters aggregate across runs,
// sharded ones included: local shard simulators fold into the runner.
func TestRunnerHotStats(t *testing.T) {
	for _, shards := range []int{0, 2} {
		r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 1, Shards: shards})
		cfg := config.MustNamed(4, 1, config.ModeV)
		if _, err := r.Run(cfg, "compress"); err != nil {
			t.Fatal(err)
		}
		h := r.HotStats()
		if h.UopRecycles == 0 {
			t.Errorf("shards=%d: no uop recycles aggregated after a run", shards)
		}
	}
}
