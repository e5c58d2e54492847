package specvec

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/experiments"
	"specvec/internal/pipeline"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// Each benchmark regenerates one figure or table of the paper at reduced
// scale and reports its key aggregate as a custom metric, so
// `go test -bench=. -benchmem` reproduces the whole evaluation. Full-scale
// runs: `go run ./cmd/sdvexp -exp all -scale 1000000`.

const benchScale = 25_000

func benchRunner() *experiments.Runner {
	return experiments.NewRunner(experiments.Options{Scale: benchScale, Seed: 1})
}

func runExperiment(b *testing.B, fn func(*experiments.Runner) ([]*experiments.Table, error)) []*experiments.Table {
	b.Helper()
	var tabs []*experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tabs, err = fn(benchRunner())
		if err != nil {
			b.Fatal(err)
		}
	}
	return tabs
}

func report(b *testing.B, tabs []*experiments.Table, row, col, unit string) {
	b.Helper()
	if v, ok := tabs[0].CellByColumn(row, col); ok {
		b.ReportMetric(v, unit)
	}
}

func BenchmarkFig01StrideDistribution(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig01)
	report(b, tabs, "INT", "s0", "INT-s0-pct")
	report(b, tabs, "FP", "s1", "FP-s1-pct")
}

func BenchmarkFig03Vectorizable(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig03)
	report(b, tabs, "INT", "vect%", "INT-vect-pct")
	report(b, tabs, "FP", "vect%", "FP-vect-pct")
}

func BenchmarkFig07ScalarBlocking(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig07)
	report(b, tabs, "Spec95", "real", "real-IPC")
	report(b, tabs, "Spec95", "ideal", "ideal-IPC")
}

func BenchmarkFig09OffsetMismatch(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig09)
	report(b, tabs, "Spec95", "off!=0%", "offset-nz-pct")
}

func BenchmarkFig10ControlIndependence(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig10)
	report(b, tabs, "INT", "reused%", "INT-reused-pct")
}

func BenchmarkFig11IPC(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig11)
	report(b, tabs, "Spec95", "1pnoIM", "IPC-4w1pnoIM")
	report(b, tabs, "Spec95", "1pIM", "IPC-4w1pIM")
	report(b, tabs, "Spec95", "1pV", "IPC-4w1pV")
}

func BenchmarkFig12PortOccupancy(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig12)
	report(b, tabs, "Spec95", "1pIM", "occ-4w1pIM-pct")
	report(b, tabs, "Spec95", "1pV", "occ-4w1pV-pct")
}

func BenchmarkFig13WideBusEffectiveness(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig13)
	report(b, tabs, "Spec95", "unused", "unused-pct")
	report(b, tabs, "Spec95", "4pos", "fourword-pct")
}

func BenchmarkFig14Validations(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig14)
	report(b, tabs, "INT", "total%", "INT-valid-pct")
	report(b, tabs, "FP", "total%", "FP-valid-pct")
}

func BenchmarkFig15ElementAccounting(b *testing.B) {
	tabs := runExperiment(b, experiments.Fig15)
	report(b, tabs, "Spec95", "used", "elems-used")
	report(b, tabs, "Spec95", "notcomp", "elems-notcomp")
}

func BenchmarkTable1Configs(b *testing.B) {
	tabs := runExperiment(b, experiments.Table1)
	report(b, tabs, "4-way", "total_B", "extra-bytes")
}

func BenchmarkHeadlineSpeedups(b *testing.B) {
	tabs := runExperiment(b, experiments.Headline)
	report(b, tabs, "IPC gain V vs IM (INT) %", "value", "INT-gain-pct")
	report(b, tabs, "IPC gain V vs IM (FP) %", "value", "FP-gain-pct")
}

func BenchmarkVecLenStatistic(b *testing.B) {
	tabs := runExperiment(b, experiments.VecLen)
	report(b, tabs, "INT", "mean-len", "INT-runlen")
	report(b, tabs, "FP", "mean-len", "FP-runlen")
}

func BenchmarkAblation(b *testing.B) {
	tabs := runExperiment(b, experiments.Ablation)
	report(b, tabs, "baseline (V)", "IPC", "baseline-IPC")
	report(b, tabs, "no churn damper", "IPC", "nochurn-IPC")
	report(b, tabs, "range-only conflicts", "IPC", "rangeonly-IPC")
}

// runnerFanout is the shared body of the Runner-mode benchmarks: one
// cold Runner per iteration executing the same 3-mode × 12-benchmark
// fan-out, so Sequential vs Parallel isolates the worker pool.
func runnerFanout(b *testing.B, workers int) {
	b.Helper()
	var specs []experiments.RunSpec
	for _, mode := range []config.Mode{config.ModeNoIM, config.ModeIM, config.ModeV} {
		cfg := config.MustNamed(4, 1, mode)
		for _, name := range workload.Names() {
			specs = append(specs, experiments.RunSpec{Cfg: cfg, Bench: name})
		}
	}
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(experiments.Options{Scale: benchScale, Seed: 1, Workers: workers})
		if _, err := r.RunAll(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
}

// BenchmarkRunnerSequential is the pre-parallelization baseline: one
// simulation at a time (Workers: 1).
func BenchmarkRunnerSequential(b *testing.B) { runnerFanout(b, 1) }

// BenchmarkRunnerParallel runs the identical fan-out on all cores; the
// ratio to BenchmarkRunnerSequential is the worker-pool speedup.
func BenchmarkRunnerParallel(b *testing.B) { runnerFanout(b, runtime.GOMAXPROCS(0)) }

// fig11Specs is the 6-config × 12-benchmark sweep (the Figure 11/12
// shape) shared by the sweep benchmarks.
func fig11Specs() []experiments.RunSpec {
	var specs []experiments.RunSpec
	for _, ports := range []int{1, 2} {
		for _, mode := range []config.Mode{config.ModeNoIM, config.ModeIM, config.ModeV} {
			cfg := config.MustNamed(4, ports, mode)
			for _, name := range workload.Names() {
				specs = append(specs, experiments.RunSpec{Cfg: cfg, Bench: name})
			}
		}
	}
	return specs
}

// sweepBench is the shared body of the trace-sharing benchmarks: each
// iteration executes the Figure 11/12 sweep cold through run, so
// SweepLiveStream vs SweepSharedTrace isolates the
// record-once/replay-many layer.
func sweepBench(b *testing.B, run func([]experiments.RunSpec) error) {
	b.Helper()
	specs := fig11Specs()
	for i := 0; i < b.N; i++ {
		if err := run(specs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(specs))*float64(b.N)/b.Elapsed().Seconds(), "sims/s")
}

// BenchmarkSweepLiveStream is the pre-trace baseline: every simulation
// re-builds its program and re-runs functional emulation, on as many
// concurrent simulations as BenchmarkSweepSharedTrace's Runner.
func BenchmarkSweepLiveStream(b *testing.B) {
	sweepBench(b, func(specs []experiments.RunSpec) error {
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		errs := make([]error, len(specs))
		var wg sync.WaitGroup
		for i, s := range specs {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, s experiments.RunSpec) {
				defer func() { <-sem; wg.Done() }()
				bench, err := workload.Get(s.Bench)
				if err != nil {
					errs[i] = err
					return
				}
				sim, err := pipeline.New(s.Cfg, bench.Build(benchScale, 1))
				if err == nil {
					_, err = sim.Run(benchScale)
				}
				errs[i] = err
			}(i, s)
		}
		wg.Wait()
		return errors.Join(errs...)
	})
}

// BenchmarkSweepSharded runs the Fig11-shaped sweep of
// BenchmarkSweepSharedTrace with every simulation split into 4
// checkpoint-fast-forwarded shards. On a single core this measures the
// sharding overhead (extra warmup replay per shard); on a multi-core
// machine the shards of one simulation run concurrently, so wall clock
// approaches the longest shard instead of the full single pass (see
// BenchmarkShardCriticalPath in internal/experiments).
func BenchmarkSweepSharded(b *testing.B) { sweepRunner(b, 4) }

// BenchmarkShardedReplay is BenchmarkTraceReplay's workload (one 200k
// swim simulation on 4w-1pV, replayed from a recording) split into 8
// shards. The recording carries checkpoints every 8192 instructions; on
// one core the shards run back to back, on >= 8 cores the wall clock is
// the longest shard.
func BenchmarkShardedReplay(b *testing.B) {
	bench, _ := workload.Get("swim")
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
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		st, err := experiments.ShardedReplay(cfg, tr, 200_000, 8, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		committed = st.Committed
	}
	b.ReportMetric(float64(committed)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSweepSharedTrace records each benchmark once and replays it
// for all six configurations; the ratio to BenchmarkSweepLiveStream is
// the sharing speedup and grows with configs-per-benchmark.
func BenchmarkSweepSharedTrace(b *testing.B) { sweepRunner(b, 0) }

// sweepRunner runs the sweep on one cold Runner per iteration.
func sweepRunner(b *testing.B, shards int) {
	sweepBench(b, func(specs []experiments.RunSpec) error {
		r := experiments.NewRunner(experiments.Options{Scale: benchScale, Seed: 1, Shards: shards})
		_, err := r.RunAll(specs)
		return err
	})
}

// BenchmarkTraceReplay measures raw replay speed: the same simulation as
// BenchmarkSimulatorThroughput, but fed from a recorded trace instead of
// live functional emulation (no machine, no memory image, no
// interpretation on the fetch path).
func BenchmarkTraceReplay(b *testing.B) {
	bench, _ := workload.Get("swim")
	prog := bench.Build(200_000, 1)
	cfg := config.MustNamed(4, 1, config.ModeV)
	mach, err := emu.New(prog)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := trace.NewRecorder(mach, prog, pipeline.SourceWindow(cfg))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := rec.Finish(200_000 + trace.RecordSlack)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		sim, err := pipeline.NewFromSource(cfg, trace.NewReplayer(tr, pipeline.SourceWindow(cfg)))
		if err != nil {
			b.Fatal(err)
		}
		st, err := sim.Run(200_000)
		if err != nil {
			b.Fatal(err)
		}
		committed = st.Committed
	}
	b.ReportMetric(float64(committed)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (simulated
// instructions per wall-clock second) on the V configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	bench, _ := workload.Get("swim")
	prog := bench.Build(200_000, 1)
	cfg := config.MustNamed(4, 1, config.ModeV)
	b.ResetTimer()
	var committed uint64
	for i := 0; i < b.N; i++ {
		sim, err := pipeline.New(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		st, err := sim.Run(200_000)
		if err != nil {
			b.Fatal(err)
		}
		committed = st.Committed
	}
	b.ReportMetric(float64(committed)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}
