package experiments

import (
	"testing"
	"time"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// BenchmarkShardCriticalPath quantifies the multi-core win of
// checkpointed fast-forward without needing a multi-core machine: it
// runs every shard of one large simulation back to back and reports
// both the total CPU time and the longest single shard. On a machine
// with >= shards idle cores, wall clock converges to the longest shard
// (max_shard_ms) plus dispatch overhead, while the single-pass replay
// is pinned at the full sequential time — the "sequential wall" the
// sharding removes. Compare with BenchmarkTraceReplay at the repository
// root (same 200k-instruction swim run on 4w-1pV).
func BenchmarkShardCriticalPath(b *testing.B) {
	bench, err := workload.Get("swim")
	if err != nil {
		b.Fatal(err)
	}
	prog := bench.Build(200_000, 1)
	cfg := config.MustNamed(4, 1, config.ModeV)
	mach, err := emu.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := rec.EnableCheckpoints(8192); err != nil {
		b.Fatal(err)
	}
	tr, err := rec.Finish(200_000 + trace.RecordSlack)
	if err != nil {
		b.Fatal(err)
	}
	plan := shardPlan(tr, 200_000, 8, DefaultShardWarmup)
	b.ResetTimer()
	var maxShard time.Duration
	for i := 0; i < b.N; i++ {
		maxShard = 0
		for _, sp := range plan {
			start := time.Now()
			if _, err := runShard(nil, cfg, tr, sp, nil); err != nil {
				b.Fatal(err)
			}
			if d := time.Since(start); d > maxShard {
				maxShard = d
			}
		}
	}
	b.ReportMetric(float64(maxShard.Milliseconds()), "max_shard_ms")
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "total_cpu_ms")
}
