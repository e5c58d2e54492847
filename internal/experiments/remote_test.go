package experiments

import (
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// wireExecutor is a RemoteShards that executes every task through
// ExecuteShardTask after a JSON round trip of both the task and the
// result — exactly the transformation a real worker dispatch performs,
// minus the network.
type wireExecutor struct {
	tasks atomic.Int64
}

func (e *wireExecutor) RunShard(ctx context.Context, task ShardTask, tr *trace.Trace) (*stats.Sim, error) {
	e.tasks.Add(1)
	b, err := json.Marshal(task)
	if err != nil {
		return nil, err
	}
	var back ShardTask
	if err := json.Unmarshal(b, &back); err != nil {
		return nil, err
	}
	st, err := ExecuteShardTask(ctx, back, tr)
	if err != nil {
		return nil, err
	}
	rb, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	out := stats.New()
	if err := json.Unmarshal(rb, out); err != nil {
		return nil, err
	}
	return out, nil
}

// TestRemoteReplayByteIdentical is the cluster acceptance pin at the
// experiments layer: with Options.Remote set — whole runs (Shards
// unset) and sharded runs alike, at several local worker counts — the
// rendered statistics must be byte-identical to a local runner at the
// same execution shape. Remote dispatch changes where replay runs, never
// what it computes.
func TestRemoteReplayByteIdentical(t *testing.T) {
	cfgs := []config.Config{
		config.MustNamed(4, 1, config.ModeIM),
		config.MustNamed(4, 1, config.ModeV),
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"whole runs", Options{Scale: 15_000, Seed: 1, Workers: 4}},
		{"whole runs, one worker", Options{Scale: 15_000, Seed: 1, Workers: 1}},
		{"sharded", Options{Scale: 15_000, Seed: 1, Workers: 4, Shards: 4}},
		{"sharded, two workers", Options{Scale: 15_000, Seed: 1, Workers: 2, Shards: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _ := renderSuite(t, tc.opts, cfgs...)
			exec := &wireExecutor{}
			tc.opts.Remote = exec
			got, _ := renderSuite(t, tc.opts, cfgs...)
			if got != want {
				t.Error("remote-dispatched statistics diverge from the local runner")
			}
			if exec.tasks.Load() == 0 {
				t.Error("no tasks reached the remote executor")
			}
		})
	}
}

// TestRemoteTaskCounts pins the dispatch arithmetic: a sharded sweep
// sends one task per shard interval, a whole-run sweep one task per
// (config, benchmark) replay — the recording leader's run included.
func TestRemoteTaskCounts(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	for _, tc := range []struct {
		name          string
		shards, tasks int64
	}{
		{"sharded", 3, 3},
		{"whole runs", 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exec := &wireExecutor{}
			r := NewRunner(Options{Scale: 12_000, Seed: 1, Workers: 2, Shards: int(tc.shards), Remote: exec})
			sims, err := r.RunAll(suiteSpecs(cfg))
			if err != nil {
				t.Fatal(err)
			}
			benches := int64(len(sims))
			if got, want := exec.tasks.Load(), tc.tasks*benches; got != want {
				t.Errorf("dispatched %d tasks, want %d (%d per run × %d benchmarks)", got, want, tc.tasks, benches)
			}
		})
	}
}

// TestExecuteShardTaskValidates pins the worker-side entry point's
// error paths: a nil trace and an invalid configuration fail with a
// clear error instead of replaying garbage.
func TestExecuteShardTaskValidates(t *testing.T) {
	cfg := config.MustNamed(4, 1, config.ModeV)
	if _, err := ExecuteShardTask(context.Background(), ShardTask{Cfg: cfg, Bench: "x"}, nil); err == nil {
		t.Error("nil trace accepted")
	}
	bad := cfg
	bad.FetchWidth = -1
	tr := recordSmallTrace(t)
	if _, err := ExecuteShardTask(context.Background(), ShardTask{Cfg: bad, Bench: "x", Measure: 100}, tr); err == nil {
		t.Error("invalid config accepted")
	}
}

// recordSmallTrace produces a tiny recording to exercise task
// validation against.
func recordSmallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	prog, err := workload.Get("compress")
	if err != nil {
		t.Fatal(err)
	}
	p := prog.Build(2_000, 1)
	mach, err := emu.New(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec.Finish(2_000 + trace.RecordSlack)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}
