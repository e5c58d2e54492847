package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/isa"
	"specvec/internal/obs"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// renderSuite runs the full benchmark suite under cfgs and concatenates
// the rendered statistics.
func renderSuite(t *testing.T, opts Options, cfgs ...config.Config) (string, *Runner) {
	t.Helper()
	r := NewRunner(opts)
	var sb strings.Builder
	for _, cfg := range cfgs {
		sims, err := r.RunAll(suiteSpecs(cfg))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sims {
			sb.WriteString(st.String())
		}
	}
	return sb.String(), r
}

// TestShardedK1ByteIdentical pins exact mode: Shards=1 (with or without
// checkpoint recording) must keep the single-pass path and produce
// byte-identical figures.
func TestShardedK1ByteIdentical(t *testing.T) {
	cfgs := []config.Config{
		config.MustNamed(4, 1, config.ModeIM),
		config.MustNamed(4, 1, config.ModeV),
	}
	plain, _ := renderSuite(t, Options{Scale: 15_000, Seed: 1, Workers: 4}, cfgs...)
	k1, _ := renderSuite(t, Options{Scale: 15_000, Seed: 1, Workers: 4, Shards: 1, CheckpointEvery: 2000}, cfgs...)
	if plain != k1 {
		t.Error("Shards=1 with checkpoint recording changed simulation statistics")
	}
}

// TestShardedDeterministic requires sharded results to be byte-identical
// across worker counts: shard boundaries are fixed and merging happens
// in shard order, so scheduling must never show through.
func TestShardedDeterministic(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	opts := Options{Scale: 20_000, Seed: 1, Shards: 4}
	opts.Workers = 1
	seq, _ := renderSuite(t, opts, cfg)
	opts.Workers = 8
	par, _ := renderSuite(t, opts, cfg)
	if seq != par {
		t.Error("sharded results differ between Workers=1 and Workers=8")
	}
}

// TestShardedSweepByteIdentical runs a sweep-shaped RunAll, several
// configurations per benchmark replaying one shared recording
// concurrently, with every replay sharded, and requires Workers=4 to
// match Workers=1 result for result.
func TestShardedSweepByteIdentical(t *testing.T) {
	specs := sweepSuite()
	sweep := func(workers int) []*stats.Sim {
		t.Helper()
		r := NewRunner(Options{Scale: 10_000, Seed: 1, Workers: workers, Shards: 3, CheckpointEvery: 2048})
		sims, err := r.RunAll(specs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return sims
	}
	base, got := sweep(1), sweep(4)
	for i := range base {
		if !reflect.DeepEqual(base[i], got[i]) {
			t.Errorf("sharded sweep: %s/%s differs between Workers=1 and Workers=4",
				specs[i].Cfg.Name, specs[i].Bench)
		}
	}
}

// TestShardedMatchesExact is the warmup-tolerance acceptance test:
// sharded figures must track single-pass figures closely — the
// instruction mix is identical by construction, and IPC agrees within a
// small tolerance because each shard re-warms state before measuring.
func TestShardedMatchesExact(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	const scale = 40_000
	for _, bench := range []string{"compress", "swim", "gcc"} {
		exact := NewRunner(Options{Scale: scale, Seed: 1})
		sharded := NewRunner(Options{Scale: scale, Seed: 1, Shards: 4})
		e, err := exact.Run(cfg, bench)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sharded.Run(cfg, bench)
		if err != nil {
			t.Fatal(err)
		}
		// Interval boundaries are observed at commit-width granularity, so
		// each of the 4 shards may shift up to CommitWidth-1 instructions
		// between warmup and measurement; totals and the per-class mix
		// must agree within that slack.
		slack := int64(4 * cfg.CommitWidth)
		within := func(what string, a, b uint64) {
			if d := int64(a) - int64(b); d < -slack || d > slack {
				t.Errorf("%s: sharded %s %d vs exact %d (beyond per-shard commit-width slack)", bench, what, a, b)
			}
		}
		within("committed", s.Committed, e.Committed)
		within("loads", s.CommittedLoads, e.CommittedLoads)
		within("stores", s.CommittedStores, e.CommittedStores)
		within("branches", s.CommittedBranches, e.CommittedBranches)
		if rel := math.Abs(s.IPC()-e.IPC()) / e.IPC(); rel > 0.05 {
			t.Errorf("%s: sharded IPC %.4f vs exact %.4f (%.1f%% off, tolerance 5%%)",
				bench, s.IPC(), e.IPC(), 100*rel)
		}
	}
}

// TestShardPlan pins the fast-forward geometry: intervals tile [0,
// total), each shard fast-forwards to a checkpoint at least warmup
// records before its interval, and shard 0 starts cold at record zero.
func TestShardPlan(t *testing.T) {
	prog, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Build(40_000, 1)
	mach, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.EnableCheckpoints(5000); err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(40_000 + trace.RecordSlack)
	if err != nil {
		t.Fatal(err)
	}

	const total, warmup = 40_000, 4096
	plan := shardPlan(tr, total, 4, warmup)
	if len(plan) != 4 {
		t.Fatalf("plan has %d shards, want 4", len(plan))
	}
	var covered uint64
	for i, sp := range plan {
		start := sp.replayFrom + sp.warmup
		if start != covered {
			t.Errorf("shard %d starts at %d, want %d (gap or overlap)", i, start, covered)
		}
		covered += sp.measure
		if i == 0 {
			if sp.replayFrom != 0 || sp.seedBHR {
				t.Errorf("shard 0 must start cold at record 0, got replayFrom=%d seed=%v", sp.replayFrom, sp.seedBHR)
			}
			continue
		}
		if sp.warmup < warmup {
			t.Errorf("shard %d warmup %d below the %d minimum", i, sp.warmup, warmup)
		}
		if sp.replayFrom%5000 != 0 || sp.replayFrom == 0 {
			t.Errorf("shard %d replays from %d, not a checkpoint boundary", i, sp.replayFrom)
		}
		if !sp.seedBHR {
			t.Errorf("shard %d does not seed the branch history", i)
		}
	}
	if covered != total {
		t.Errorf("plan measures %d instructions, want %d", covered, total)
	}
}

// TestPublishTraceNeverNilNil is the ISSUE 4 regression pin: resolving a
// trace entry with a nil trace and a nil error must never reach the
// followers as such — the guard substitutes ErrRecordingUnusable.
func TestPublishTraceNeverNilNil(t *testing.T) {
	r := NewRunner(Options{Scale: 5_000, Seed: 1, Workers: 1})
	prog := &isa.Program{Name: "stub", Insts: []isa.Inst{{Op: isa.OpHalt}}}
	tc := &traceCall{done: make(chan struct{})}
	r.publishTrace(tc, "stub", prog, nil, nil)
	<-tc.done
	if !errors.Is(tc.err, ErrRecordingUnusable) {
		t.Errorf("nil-trace/nil-error publish resolved with err=%v, want ErrRecordingUnusable", tc.err)
	}
	if r.TraceRecordings() != 0 {
		t.Error("a failed recording was counted as recorded")
	}
}

// TestRecordingFailureFallsBack seeds a shared-trace entry in the failed
// state (valid program, no trace, ErrRecordingUnusable) and checks that
// timing runs and the stream pass (VecLen's eachRecord) both fall back
// to live emulation with results identical to the live reference.
func TestRecordingFailureFallsBack(t *testing.T) {
	const bench = "compress"
	opts := Options{Scale: 10_000, Seed: 1, Workers: 2}
	cfg := config.MustNamed(4, 1, config.ModeV)

	b, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Build(opts.Scale, opts.Seed)

	seeded := NewRunner(opts)
	tc := &traceCall{done: make(chan struct{})}
	seeded.publishTrace(tc, bench, prog, nil, ErrRecordingUnusable)
	seeded.traces[bench] = tc

	st, err := seeded.Run(cfg, bench)
	if err != nil {
		t.Fatalf("failed recording was fatal for the benchmark: %v", err)
	}
	if st.String() != liveRun(t, opts, cfg, bench).String() {
		t.Error("live-emulation fallback produced different statistics than the live reference")
	}

	// The stream pass must also fall back and still see every record.
	var n int
	if err := seeded.eachRecord(bench, 1000, func(*emu.DynInst) { n++ }); err != nil {
		t.Fatalf("eachRecord with a failed recording: %v", err)
	}
	if n != 1000 {
		t.Errorf("eachRecord yielded %d records, want 1000", n)
	}
}

// TestShardedSpans pins the span shape of a local sharded run, the same
// shape remote dispatch has: under the run span, the leader's "record",
// then a "shard-fanout" holding one "shard" per interval, then "merge".
func TestShardedSpans(t *testing.T) {
	tr := obs.NewTrace("t", nil, "job")
	ctx := obs.ContextWith(context.Background(), obs.SpanContext{T: tr, Span: obs.RootSpan})
	r := NewRunner(Options{Scale: 12_000, Seed: 1, Workers: 2, Shards: 3, Context: ctx})
	if _, err := r.Run(config.MustNamed(4, 1, config.ModeV), "compress"); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	spans := tr.Snapshot()
	children := func(parent obs.SpanID) (ids []obs.SpanID, names []string) {
		for i, sp := range spans {
			if sp.Parent == parent {
				ids = append(ids, obs.SpanID(i))
				names = append(names, sp.Name)
			}
		}
		return ids, names
	}
	runs, names := children(obs.RootSpan)
	if len(runs) != 1 || names[0] != "run" {
		t.Fatalf("root children = %v, want one run span", names)
	}
	kids, names := children(runs[0])
	if got, want := strings.Join(names, ","), "record,shard-fanout,merge"; got != want {
		t.Fatalf("run span children = %s, want %s", got, want)
	}
	shards, names := children(kids[1])
	if len(shards) != 3 {
		t.Errorf("shard-fanout has %d children %v, want 3 shard spans", len(shards), names)
	}
	for i, id := range shards {
		if names[i] != "shard" || spans[id].End < 0 {
			t.Errorf("fan-out child %d: %q, end %v; want a closed shard span", i, names[i], spans[id].End)
		}
	}
}
