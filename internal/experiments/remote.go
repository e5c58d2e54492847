package experiments

import (
	"context"
	"fmt"

	"specvec/internal/config"
	"specvec/internal/stats"
	"specvec/internal/trace"
)

// Shard dispatch: every replay that is not an unsharded local run —
// checkpointed shards, and with Options.Remote set whole (configuration,
// benchmark) runs too, the recording leader's included — is handed to a
// RemoteShards executor: Options.Remote, or localShards over the worker
// pool. The unit of work is a ShardTask: one replay interval of a
// recorded trace, fully described by plain data. Replay is
// deterministic — (recording, configuration, interval) fixes every
// statistic — so a task is relocatable: any node produces the same
// bytes, a failed node's task re-runs elsewhere without changing the
// result, and fanOut merges the per-interval statistics in plan order
// wherever they ran (stats.Sim Merge is order-independent anyway,
// pinned by stats' TestMergeOrderIndependent). Recording itself stays
// local: it needs functional emulation of the built program, and it
// happens once per benchmark.

// ShardTask is one replay interval of a recorded trace, the unit of
// remote execution. Warmup == 0 && ReplayFrom == 0 describes a whole
// run (RunInterval(0, n) produces exactly Run(n)'s figures). The Trace
// field is the content address of the recording; the runner leaves it
// empty and the executor fills it when it publishes the recording to
// its artifact store.
type ShardTask struct {
	Cfg        config.Config `json:"cfg"`
	Bench      string        `json:"bench"`
	Trace      string        `json:"trace,omitempty"` // content address, set by the executor
	ReplayFrom uint64        `json:"replayFrom"`      // record offset replay starts at
	BHR        uint64        `json:"bhr,omitempty"`   // branch history recorded at that boundary
	SeedBHR    bool          `json:"seedBHR,omitempty"`
	Warmup     uint64        `json:"warmup"`  // commits before measurement begins
	Measure    uint64        `json:"measure"` // measured commits
}

// RemoteShards executes replay intervals: the cluster places them on
// its nodes, localShards runs them on the worker pool. tr is the live
// recording the task addresses; a cluster publishes it by content
// address for workers to pull and keeps it for local fallback, so a
// RunShard only fails on context cancellation or a genuine simulation
// error — never because no worker was available. ctx carries the
// task's "shard" span (obs.FromContext). Implementations must be safe
// for concurrent use and must preserve byte-identity: the statistics
// returned for a task are exactly what ExecuteShardTask produces
// locally (the determinism guarantee failover relies on).
type RemoteShards interface {
	RunShard(ctx context.Context, task ShardTask, tr *trace.Trace) (*stats.Sim, error)
}

// ExecuteShardTask replays one task interval from tr — the recording
// the task's Trace field addresses; the caller resolves it — and
// returns the interval's statistics. It is the worker-side entry point
// of remote dispatch and the executor's local fallback; determinism
// makes the result byte-identical wherever it runs.
func ExecuteShardTask(ctx context.Context, task ShardTask, tr *trace.Trace) (*stats.Sim, error) {
	if tr == nil {
		return nil, fmt.Errorf("experiments: shard task %s/%s: nil trace", task.Cfg.Name, task.Bench)
	}
	if err := task.Cfg.Validate(); err != nil {
		return nil, err
	}
	return runShard(ctx, task.Cfg, tr, task.spec(), nil)
}

// spec is the replay interval the task describes.
func (t ShardTask) spec() shardSpec {
	return shardSpec{replayFrom: t.ReplayFrom, bhr: t.BHR, seedBHR: t.SeedBHR, warmup: t.Warmup, measure: t.Measure}
}
