package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"specvec/internal/config"
	"specvec/internal/obs"
	"specvec/internal/pipeline"
	"specvec/internal/profile"
	"specvec/internal/stats"
	"specvec/internal/trace"
)

// Checkpointed fast-forward: a recorded trace with embedded checkpoints
// lets one (configuration, benchmark) simulation split into K measured
// intervals that run concurrently. Each shard starts its replay at the
// latest checkpoint comfortably before its interval, seeds the branch
// predictor with the recorded outcome history, re-warms
// microarchitectural state across the warmup window, and measures only
// its own interval; the per-interval statistics are merged in shard
// order, so results are deterministic regardless of scheduling.

// DefaultShardWarmup is the minimum number of instructions a shard
// replays before measurement begins. Restored checkpoints carry
// architectural state only — caches, predictor tables and the SDV
// structures start cold — so the warmup window exists to re-train them;
// 4096 instructions cover the deepest configuration's in-flight capacity
// several times over.
const DefaultShardWarmup = 4096

// shardSpec is one fast-forwarded interval of a sharded run.
type shardSpec struct {
	replayFrom uint64 // source offset replay starts at (checkpoint boundary or 0)
	bhr        uint64 // branch-outcome history recorded at that boundary
	seedBHR    bool
	warmup     uint64 // commits before measurement (replayFrom..start)
	measure    uint64 // measured commits (start..end)
}

// shardPlan splits [0, total) committed instructions into shards
// intervals. Each interval fast-forwards to the latest checkpoint at
// least warmup records before its start, so its warmup is within
// [warmup, warmup+checkpoint interval); with no usable checkpoint the
// shard replays from record zero (correct, just a longer warmup). A
// halted trace shorter than total clamps the plan to what was recorded.
func shardPlan(tr *trace.Trace, total uint64, shards int, warmup uint64) []shardSpec {
	if n := uint64(tr.Len()); tr.Halted() && n < total {
		total = n
	}
	if shards < 1 {
		shards = 1
	}
	if uint64(shards) > total && total > 0 {
		shards = int(total)
	}
	step := total / uint64(shards)
	plan := make([]shardSpec, 0, shards)
	for i := 0; i < shards; i++ {
		start := uint64(i) * step
		end := start + step
		if i == shards-1 {
			end = total
		}
		sp := shardSpec{measure: end - start}
		var warmStart uint64
		if start > warmup {
			warmStart = start - warmup
		}
		if ck, ok := tr.CheckpointBefore(warmStart); ok {
			sp.replayFrom = ck.Seq
			sp.bhr = ck.BHR
			sp.seedBHR = true
		}
		sp.warmup = start - sp.replayFrom
		plan = append(plan, sp)
	}
	return plan
}

// runShard executes one interval of the plan. A non-nil ctx cancels the
// interval (service-layer jobs); a non-nil hot callback receives the
// shard simulator's hot-path counters.
func runShard(ctx context.Context, cfg config.Config, tr *trace.Trace, sp shardSpec, hot func(profile.HotStats)) (*stats.Sim, error) {
	sim, err := pipeline.NewFromSource(cfg, trace.NewReplayerAt(tr, pipeline.SourceWindow(cfg), sp.replayFrom))
	if err != nil {
		return nil, err
	}
	if ctx != nil {
		sim.SetContext(ctx)
	}
	if sp.seedBHR {
		sim.SeedBranchHistory(sp.bhr)
	}
	st, err := sim.RunInterval(sp.warmup, sp.measure)
	if hot != nil {
		hot(sim.HotStats())
	}
	return st, err
}

// localShards is the in-process shard executor: each task takes one slot
// of sem for its whole replay, so tasks share the bound of whatever pool
// sem belongs to. hot, when non-nil, receives every task simulator's
// hot-path counters.
type localShards struct {
	sem chan struct{}
	hot func(profile.HotStats)
}

func (l localShards) RunShard(ctx context.Context, task ShardTask, tr *trace.Trace) (*stats.Sim, error) {
	select {
	case l.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-l.sem }()
	return runShard(ctx, task.Cfg, tr, task.spec(), l.hot)
}

// fanOut runs every interval of plan on exec concurrently and merges the
// interval statistics in plan order, so results never depend on
// scheduling or placement. onDone (optional) observes each finished
// interval with the count of completed intervals so far; it may be
// called concurrently. sc, when active, receives a "shard-fanout" span
// with one "shard" child per task, then a "merge" span; an executor sees
// its task's span through ctx (the cluster grafts the remote half —
// worker, RTT, pull — under it).
func fanOut(ctx context.Context, exec RemoteShards, cfg config.Config, bench string, tr *trace.Trace,
	plan []shardSpec, sc obs.SpanContext, onDone func(done, total int)) (*stats.Sim, error) {
	results := make([]*stats.Sim, len(plan))
	errs := make([]error, len(plan))
	var wg sync.WaitGroup
	var finished atomic.Int32
	fan := sc.Start("shard-fanout")
	for i, sp := range plan {
		wg.Add(1)
		go func(i int, sp shardSpec) {
			defer wg.Done()
			task := ShardTask{
				Cfg: cfg, Bench: bench,
				ReplayFrom: sp.replayFrom, BHR: sp.bhr, SeedBHR: sp.seedBHR,
				Warmup: sp.warmup, Measure: sp.measure,
			}
			tsc := fan.Start("shard")
			results[i], errs[i] = exec.RunShard(obs.ContextWith(ctx, tsc), task, tr)
			tsc.End()
			if errs[i] == nil && onDone != nil {
				onDone(int(finished.Add(1)), len(plan))
			}
		}(i, sp)
	}
	wg.Wait()
	fan.End()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merge := sc.Start("merge")
	defer merge.End()
	merged := results[0]
	for _, st := range results[1:] {
		merged.Merge(st)
	}
	return merged, nil
}

// dispatch replays one simulation through the runner's shard executor: the
// checkpoint-fast-forwarded plan at Shards > 1, one whole-run task
// otherwise. The caller (Run) holds one pool slot; it is released across
// the fan-out — local tasks take their own slots, remote ones burn
// remote cores — and re-acquired before returning so Run's release
// stays balanced and local concurrency never exceeds Workers.
func (r *Runner) dispatch(cfg config.Config, bench string, tr *trace.Trace, sc obs.SpanContext) (*stats.Sim, error) {
	plan := shardPlan(tr, uint64(r.opts.Scale), r.opts.Shards, uint64(r.opts.ShardWarmup))
	<-r.sem
	st, err := fanOut(r.ctx, r.exec, cfg, bench, tr, plan, sc, func(done, total int) {
		r.emit(ProgressEvent{Kind: ShardDone, Cfg: cfg.Name, Bench: bench, Shard: done, Shards: total})
	})
	r.sem <- struct{}{}
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", cfg.Name, bench, err)
	}
	return st, nil
}

// ShardedReplay simulates total committed instructions of a recorded
// trace under cfg as shards checkpoint-fast-forwarded intervals running
// on up to workers goroutines, and merges the per-interval statistics
// (sdvsim -trace-replay -shards). shards <= 1 is exact mode: one
// single-pass replay, byte-identical to an unsharded run. warmup <= 0
// uses DefaultShardWarmup; workers <= 0 uses every core. A trace without
// checkpoints still shards correctly, but every shard then replays from
// record zero, serializing most of the win.
func ShardedReplay(cfg config.Config, tr *trace.Trace, total uint64, shards, warmup, workers int) (*stats.Sim, error) {
	if shards <= 1 {
		sim, err := pipeline.NewFromSource(cfg, trace.NewReplayer(tr, pipeline.SourceWindow(cfg)))
		if err != nil {
			return nil, err
		}
		return sim.Run(total)
	}
	if warmup <= 0 {
		warmup = DefaultShardWarmup
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return fanOut(context.TODO(), localShards{sem: make(chan struct{}, workers)}, cfg, "", tr,
		shardPlan(tr, total, shards, uint64(warmup)), obs.SpanContext{}, nil)
}
