package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/isa"
	"specvec/internal/obs"
	"specvec/internal/pipeline"
	"specvec/internal/profile"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
)

// Options control the scale of all experiment runs.
type Options struct {
	// Scale is the approximate dynamic instruction count per run. The
	// paper simulates 100M instructions per benchmark; the default here is
	// laptop-sized and can be raised with -scale.
	Scale int
	// Seed perturbs the generated workload data.
	Seed int64
	// Workers bounds the number of simulations executing concurrently.
	// <= 0 means runtime.GOMAXPROCS(0); 1 is strictly sequential. Results
	// are byte-identical regardless of Workers: every simulation is an
	// independent deterministic run and tables are assembled in a fixed
	// order.
	//
	//sdv:shape
	Workers int
	// Shards splits every (configuration, benchmark) replay into this
	// many measured intervals, each fast-forwarded to a trace checkpoint
	// and handed to the shard executor (Remote, or the worker pool), with
	// per-interval statistics merged in a fixed order. <= 1 is exact
	// mode: the single-pass behaviour, byte-identical to a Runner without
	// sharding. Sharded (K > 1) figures agree with exact ones within the
	// warmup tolerance (see ShardWarmup); a single large benchmark stops
	// being a sequential wall because its intervals run concurrently. A
	// configuration the recording cannot feed emulates live, unsharded.
	Shards int
	// CheckpointEvery is the interval, in committed instructions, between
	// architectural checkpoints embedded in recorded traces. <= 0
	// defaults to twice ShardWarmup when sharding is enabled — spacing is
	// warmup-relative, not Scale-relative, so the duplicated warmup work
	// per shard stays small — and records no checkpoints otherwise.
	CheckpointEvery int
	// ShardWarmup is the minimum number of instructions a shard replays
	// before its measured interval begins, re-warming caches, the branch
	// predictor and the SDV structures from the restored boundary. <= 0
	// defaults to DefaultShardWarmup when sharding is enabled.
	ShardWarmup int
	// Context, when non-nil, cancels the runner: in-flight simulations
	// abort within a few thousand cycles, queued work is not started, and
	// Run/RunAll return the context's error. The service layer hands each
	// job its own context so abandoned requests stop burning workers. A
	// memo entry whose run was cancelled is evicted, so cancellation never
	// poisons the cache for a later requester. Results are unaffected: a
	// run that completes before cancellation is byte-identical to one
	// without a context.
	Context context.Context
	// Progress, when non-nil, receives run lifecycle events (see
	// ProgressEvent). It is called concurrently from worker goroutines —
	// it must be safe for concurrent use and must not call back into the
	// Runner. Observation only: results are byte-identical with or
	// without it.
	//
	//sdv:shape
	Progress func(ProgressEvent)
	// Traces, when non-nil, persists recorded benchmark traces across
	// Runner instances (see TraceStore). A leader checks the store before
	// recording and publishes successful recordings back to it.
	Traces TraceStore
	// Workloads, when non-nil, resolves benchmark names instead of the
	// global workload registry. The service layer threads a per-job
	// resolver built from the job's workload-spec payload through here,
	// so concurrent jobs carrying different spec files never observe each
	// other's generated workloads. Nil means workload.Get: built-ins plus
	// whatever the process registered at startup (CLI -spec flags).
	Workloads func(name string) (workload.Benchmark, error)
	// Remote, when non-nil, executes every trace replay — whole runs and
	// shards alike, the recording leader's own run included — through
	// this executor (see RemoteShards) instead of the worker pool. Nil
	// means the local pool, sharded runs through the same fan-out.
	// Recording and live-emulation fallbacks stay local. Execution shape
	// only: replay is deterministic, so results are byte-identical with
	// and without it, at any worker count, and across worker failures
	// (the executor requeues a dead node's tasks).
	//
	//sdv:shape
	Remote RemoteShards
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{Scale: 300_000, Seed: 1, Workers: runtime.GOMAXPROCS(0)}
}

// WithDefaults returns o with every defaulted field resolved — the exact
// options a Runner built from o will report via Opts(). The service layer
// uses it to scope trace artifact stores by effective (scale, seed,
// checkpoint spacing) before the Runner exists.
func (o Options) WithDefaults() Options { return o.withDefaults() }

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = DefaultOptions().Scale
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards > 1 {
		if o.ShardWarmup <= 0 {
			o.ShardWarmup = DefaultShardWarmup
		}
		if o.CheckpointEvery <= 0 {
			// A shard's warmup is ShardWarmup plus up to one checkpoint
			// interval of slack (it fast-forwards to the latest boundary at
			// least ShardWarmup before its interval), so checkpoints are
			// spaced relative to the warmup — not the interval — to keep
			// the duplicated work per shard small.
			o.CheckpointEvery = max(1024, 2*o.ShardWarmup)
		}
	}
	return o
}

// RunSpec names one (configuration, benchmark) simulation.
type RunSpec struct {
	Cfg   config.Config
	Bench string
}

// runKey is the comparable memo key of one simulation: the configuration
// fields that influence results plus the benchmark name. Scale and seed
// are fixed per Runner and need no representation. A struct key keeps
// string formatting out of the memo hot path.
type runKey struct {
	name               string
	unbounded          bool
	blockScalarOperand bool
	churnDamper        bool
	rangeOnlyConflicts bool
	vectorLen          int
	vectorRegs         int
	confThreshold      int
	bench              string
}

func (r *Runner) key(cfg config.Config, bench string) runKey {
	return runKey{
		name:               cfg.Name,
		unbounded:          cfg.Unbounded,
		blockScalarOperand: cfg.BlockScalarOperand,
		churnDamper:        cfg.ChurnDamper,
		rangeOnlyConflicts: cfg.RangeOnlyConflicts,
		vectorLen:          cfg.VectorLen,
		vectorRegs:         cfg.VectorRegs,
		confThreshold:      cfg.ConfThreshold,
		bench:              bench,
	}
}

// call is one memoised simulation. The first requester of a key becomes
// the leader and computes; every later requester blocks on done and
// shares the leader's result (singleflight), so experiments that overlap
// (e.g. Figures 11 and 12) pay for each run once even when submitted
// concurrently.
type call struct {
	done chan struct{}
	st   *stats.Sim
	err  error
}

// traceCall is one memoised (benchmark, scale, seed) recording: the built
// program and the recorded dynamic instruction stream, shared by every
// configuration that simulates the benchmark. The first requester records
// it with a functional pass; then it and every later requester replay.
// The resolved fields encode three outcomes:
//
//   - prog != nil, tr != nil: recording usable, followers replay.
//   - prog != nil, tr == nil: recording failed; err wraps
//     ErrRecordingUnusable (never nil — publishTrace enforces it) and
//     followers fall back to live emulation of the shared program.
//   - prog == nil: program construction failed; err is fatal for every
//     run of the benchmark.
type traceCall struct {
	done chan struct{}
	prog *isa.Program
	tr   *trace.Trace
	err  error
}

// ErrRecordingUnusable marks a shared-trace entry whose recording failed
// after the benchmark program itself was built: the benchmark is still
// simulable, so followers emulate live instead of replaying. It replaces
// the old behaviour of silently discarding rec.Finish errors, which
// published a nil trace with a nil error to every follower.
var ErrRecordingUnusable = errors.New("experiments: benchmark recording unusable")

// Runner executes (configuration, benchmark) pairs on a bounded worker
// pool with two memo layers: per-(config, benchmark) statistics, and
// per-benchmark recorded traces shared across every configuration of a
// sweep. It is safe for concurrent use by multiple goroutines.
type Runner struct {
	opts Options
	ctx  context.Context // Options.Context or Background; never nil
	sem  chan struct{}   // bounds concurrently executing simulations
	exec RemoteShards    // Options.Remote, or localShards over sem

	mu     sync.Mutex
	cache  map[runKey]*call
	traces map[string]*traceCall

	sims     atomic.Int64 // simulations actually executed (cache misses)
	recorded atomic.Int64 // benchmark traces recorded (trace-cache misses)
	replayed atomic.Int64 // simulations served from a recorded trace
	loaded   atomic.Int64 // benchmark traces loaded from Options.Traces

	// Aggregated pipeline hot-path counters across every simulation the
	// runner executed (service /metrics). Folded via profile.HotStats.Add
	// under hotMu — one fold per finished simulator, far off any hot path.
	hotMu sync.Mutex
	hot   profile.HotStats
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner {
	opts = opts.withDefaults()
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	r := &Runner{
		opts:   opts,
		ctx:    ctx,
		sem:    make(chan struct{}, opts.Workers),
		exec:   opts.Remote,
		cache:  map[runKey]*call{},
		traces: map[string]*traceCall{},
	}
	if r.exec == nil {
		r.exec = localShards{sem: r.sem, hot: r.collectHot}
	}
	return r
}

// emit delivers a progress event to Options.Progress, if any.
func (r *Runner) emit(ev ProgressEvent) {
	if r.opts.Progress != nil {
		r.opts.Progress(ev)
	}
}

// cancelled reports whether err is a context cancellation (the runner's
// own or a deadline).
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// collectHot folds one finished simulator's hot-path counters into the
// runner's aggregate.
func (r *Runner) collectHot(h profile.HotStats) {
	r.hotMu.Lock()
	r.hot.Add(h)
	r.hotMu.Unlock()
}

// HotStats returns pool-traffic counters aggregated over every simulation
// the runner executed. JournalDepth is zero: it is per-simulator state,
// not a sum (see profile.HotStats.Add).
func (r *Runner) HotStats() profile.HotStats {
	r.hotMu.Lock()
	defer r.hotMu.Unlock()
	return r.hot
}

// Opts returns the runner's options.
func (r *Runner) Opts() Options { return r.opts }

// Simulations returns how many simulations the runner has actually
// executed — i.e. cache misses; singleflight-shared and memoised requests
// do not count.
func (r *Runner) Simulations() int64 { return r.sims.Load() }

// TraceRecordings returns how many benchmark traces have been recorded
// (at most one per benchmark).
func (r *Runner) TraceRecordings() int64 { return r.recorded.Load() }

// TraceReplays returns how many simulations ran from a recorded trace
// instead of live functional emulation.
func (r *Runner) TraceReplays() int64 { return r.replayed.Load() }

// TraceLoads returns how many benchmark traces were served by
// Options.Traces instead of being recorded.
func (r *Runner) TraceLoads() int64 { return r.loaded.Load() }

// Run simulates benchmark bench under cfg and returns its statistics.
// Results are memoised on (config name, variant flags, benchmark); an
// in-flight run for the same key is joined rather than duplicated.
func (r *Runner) Run(cfg config.Config, bench string) (*stats.Sim, error) {
	key := r.key(cfg, bench)
	r.mu.Lock()
	if c, ok := r.cache[key]; ok {
		r.mu.Unlock()
		select {
		case <-c.done:
		case <-r.ctx.Done():
			return nil, r.ctx.Err()
		}
		r.emit(ProgressEvent{Kind: RunDone, Cfg: cfg.Name, Bench: bench, Cached: true, Err: c.err})
		return c.st, c.err
	}
	c := &call{done: make(chan struct{})}
	r.cache[key] = c
	r.mu.Unlock()

	// Check the context before the pool: select{} picks randomly when both
	// a free slot and a cancelled context are ready, and a cancelled runner
	// must not start new simulations.
	if err := r.ctx.Err(); err != nil {
		c.err = err
	} else {
		select {
		case r.sem <- struct{}{}:
			c.st, c.err = r.simulate(cfg, bench)
			<-r.sem
		case <-r.ctx.Done():
			c.err = r.ctx.Err()
		}
	}
	if c.err != nil && cancelled(c.err) {
		// A cancelled run must not poison the memo: evict the entry before
		// waking followers so the next requester (with a live context)
		// recomputes. Followers already waiting still observe the error.
		r.mu.Lock()
		if r.cache[key] == c {
			delete(r.cache, key)
		}
		r.mu.Unlock()
	}
	close(c.done)
	r.emit(ProgressEvent{Kind: RunDone, Cfg: cfg.Name, Bench: bench, Err: c.err})
	return c.st, c.err
}

// recordTarget is the length a recording is extended to when the program
// has not halted by then: the commit limit (Scale) plus more than the
// in-flight capacity of the widest configuration. No replay can observe
// records past that point, so longer-running programs need not be
// emulated to their halt.
func (r *Runner) recordTarget() int { return r.opts.Scale + trace.RecordSlack }

// usable reports whether the recorded trace can feed a simulation under
// cfg: it either ends in a halt or extends past the commit limit by at
// least cfg's in-flight capacity.
func (r *Runner) usable(tr *trace.Trace, cfg config.Config) bool {
	return tr != nil && (tr.Halted() || tr.Len() >= r.opts.Scale+pipeline.SourceWindow(cfg))
}

// sharedTrace returns the bench's trace entry, electing the caller's
// goroutine as recorder if none exists yet. The second return is true for
// the leader, which receives an unresolved entry (prog/tr unset) and MUST
// resolve it via publishTrace or publishLoadedTrace. Followers block until
// the entry resolves or the runner's context is cancelled (non-nil error).
func (r *Runner) sharedTrace(bench string) (*traceCall, bool, error) {
	r.mu.Lock()
	tc, ok := r.traces[bench]
	if !ok {
		tc = &traceCall{done: make(chan struct{})}
		r.traces[bench] = tc
		r.mu.Unlock()
		return tc, true, nil
	}
	r.mu.Unlock()
	select {
	case <-tc.done:
	case <-r.ctx.Done():
		return nil, false, r.ctx.Err()
	}
	return tc, false, nil
}

// dropTrace evicts bench's trace entry if it is still tc, so a
// cancellation-poisoned recording does not stick to the benchmark for
// every later run. Call before publishing the entry.
func (r *Runner) dropTrace(bench string, tc *traceCall) {
	r.mu.Lock()
	if r.traces[bench] == tc {
		delete(r.traces, bench)
	}
	r.mu.Unlock()
}

// publishTrace resolves a leader's trace entry and wakes the followers.
// An entry without a trace must carry the reason: a nil trace published
// with a nil error would leave followers unable to distinguish "the
// recording failed" from anything else (the swallowed-error bug this
// guard pins shut), so such a call is coerced to ErrRecordingUnusable.
// A freshly recorded trace is persisted to Options.Traces, if configured
// — after the followers are woken: the store's disk tier encodes and
// writes megabytes, and the in-memory trace is already complete, so the
// sweep's critical path must not wait out the persistence of an
// optimisation.
func (r *Runner) publishTrace(tc *traceCall, bench string, prog *isa.Program, tr *trace.Trace, err error) {
	if tr == nil && err == nil {
		err = ErrRecordingUnusable
	}
	tc.prog, tc.tr, tc.err = prog, tr, err
	if tr != nil {
		r.recorded.Add(1)
	}
	close(tc.done)
	if tr != nil && r.opts.Traces != nil {
		r.opts.Traces.Store(bench, tr)
	}
}

// publishLoadedTrace resolves a leader's trace entry with a recording
// served by Options.Traces (counted separately from fresh recordings, and
// not written back to the store).
func (r *Runner) publishLoadedTrace(tc *traceCall, prog *isa.Program, tr *trace.Trace) {
	tc.prog, tc.tr = prog, tr
	r.loaded.Add(1)
	close(tc.done)
}

// loadStoredTrace asks Options.Traces for a usable recording of bench: it
// must cover this runner's record target (or end in a halt) and, for
// sharded runs, carry checkpoints to fast-forward to. An unusable stored
// trace is ignored — the leader records afresh.
func (r *Runner) loadStoredTrace(bench string) (*trace.Trace, bool) {
	if r.opts.Traces == nil {
		return nil, false
	}
	tr, ok := r.opts.Traces.Load(bench)
	if !ok || tr == nil {
		return nil, false
	}
	if !tr.Halted() && tr.Len() < r.recordTarget() {
		return nil, false
	}
	if r.opts.Shards > 1 && len(tr.Checkpoints()) == 0 {
		return nil, false
	}
	return tr, true
}

// loadShared resolves a leader's trace entry with a recording from
// Options.Traces and reports whether the store had a usable one. A warm
// store spares both the recording and the functional emulation; the
// program is still built for the live-emulation fallback of
// configurations the trace cannot feed. sc, when active and a store is
// configured, receives a "trace-load" span covering the lookup.
func (r *Runner) loadShared(bench string, tc *traceCall, sc obs.SpanContext) bool {
	var load obs.SpanContext
	if r.opts.Traces != nil {
		load = sc.Start("trace-load")
	}
	tr, ok := r.loadStoredTrace(bench)
	load.End()
	if !ok {
		return false
	}
	if prog, err := r.buildProgram(bench); err != nil {
		r.publishTrace(tc, bench, nil, nil, err)
	} else {
		r.publishLoadedTrace(tc, prog, tr)
	}
	return true
}

// lookup resolves a benchmark name through the runner's resolver, or the
// global registry when none is set.
func (r *Runner) lookup(bench string) (workload.Benchmark, error) {
	if r.opts.Workloads != nil {
		return r.opts.Workloads(bench)
	}
	return workload.Get(bench)
}

// buildProgram constructs the benchmark program at the runner's scale and
// seed.
func (r *Runner) buildProgram(bench string) (*isa.Program, error) {
	b, err := r.lookup(bench)
	if err != nil {
		return nil, err
	}
	return b.Build(r.opts.Scale, r.opts.Seed), nil
}

// resolveTrace returns bench's shared trace entry. Its first requester
// resolves it — from Options.Traces, else with a functional recording
// pass — under sc. The error is non-nil only when the benchmark cannot
// be simulated at all (cancellation, or program construction failed); a
// failed recording propagates through tc.err — wrapping
// ErrRecordingUnusable, never a silent nil — and callers fall back to
// live emulation of tc.prog.
func (r *Runner) resolveTrace(bench string, sc obs.SpanContext) (*traceCall, error) {
	tc, leader, err := r.sharedTrace(bench)
	if err != nil {
		return nil, err
	}
	if leader && !r.loadShared(bench, tc, sc) {
		r.recordShared(bench, tc, sc)
	}
	if tc.prog == nil {
		return tc, tc.err
	}
	return tc, nil
}

// simulate is one uncached simulation. It resolves the benchmark's
// shared recording (the first simulation of a benchmark records it) and
// replays it under cfg: unsharded on the caller's pool slot, otherwise
// through the shard executor.
func (r *Runner) simulate(cfg config.Config, bench string) (*stats.Sim, error) {
	r.sims.Add(1)
	r.emit(ProgressEvent{Kind: RunStarted, Cfg: cfg.Name, Bench: bench, Target: uint64(r.opts.Scale)})
	run := obs.FromContext(r.ctx).StartRun("run", cfg.Name, bench)
	defer run.End()
	tc, err := r.resolveTrace(bench, run)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", cfg.Name, bench, err)
	}
	if !r.usable(tc.tr, cfg) {
		// Failed recording (tc.err says why — see ErrRecordingUnusable) or
		// one too short for this configuration's in-flight capacity:
		// emulate live on the shared program.
		return r.timedRun(run, "emulate", cfg, bench, func() (*pipeline.Simulator, error) {
			return pipeline.New(cfg, tc.prog)
		})
	}
	r.replayed.Add(1)
	if r.opts.Remote != nil || r.opts.Shards > 1 {
		return r.dispatch(cfg, bench, tc.tr, run)
	}
	return r.timedRun(run, "replay", cfg, bench, func() (*pipeline.Simulator, error) {
		return pipeline.NewFromSource(cfg, trace.NewReplayer(tc.tr, pipeline.SourceWindow(cfg)))
	})
}

// startRecording builds bench's program and a Recorder over a fresh
// emulator of it: the recorder embeds checkpoints at the runner's
// spacing and is reserved for the record target. On failure tc is
// already resolved — a program error is fatal for the benchmark, a
// recorder error loses only the recording — and the error is returned.
func (r *Runner) startRecording(bench string, tc *traceCall) (*isa.Program, *trace.Recorder, error) {
	prog, err := r.buildProgram(bench)
	if err != nil {
		r.publishTrace(tc, bench, nil, nil, err)
		return nil, nil, err
	}
	mach, err := emu.New(prog)
	if err != nil {
		r.publishTrace(tc, bench, nil, nil, err)
		return nil, nil, err
	}
	rec, err := trace.NewRecorder(mach, prog, 0)
	if err == nil && r.opts.CheckpointEvery > 0 {
		err = rec.EnableCheckpoints(r.opts.CheckpointEvery)
	}
	if err != nil {
		// The program is fine; only the recording is lost. Followers fall
		// back to live emulation of the shared program.
		r.publishTrace(tc, bench, prog, nil, fmt.Errorf("%w: %v", ErrRecordingUnusable, err))
		return nil, nil, err
	}
	rec.SetContext(r.ctx)
	rec.Reserve(r.recordTarget())
	return prog, rec, nil
}

// finishRecording extends rec to the record target and publishes the
// trace. A Finish failure is published with its cause, never as a bare
// nil trace: followers fall back to live emulation and anyone inspecting
// the entry sees why the recording was dropped. Cancellation is not a
// property of the benchmark, so a cancelled recording also evicts the
// entry and a later requester records afresh.
func (r *Runner) finishRecording(bench string, tc *traceCall, prog *isa.Program, rec *trace.Recorder) {
	tr, err := rec.Finish(r.recordTarget())
	if err != nil {
		if cancelled(err) {
			r.dropTrace(bench, tc)
		}
		r.publishTrace(tc, bench, prog, nil, fmt.Errorf("%w: %v", ErrRecordingUnusable, err))
		return
	}
	r.publishTrace(tc, bench, prog, tr, nil)
}

// recordShared resolves a leader's trace entry with a pure functional
// recording pass (no timing simulation). The entry is always resolved.
// sc, when active, receives a "record" span covering the pass.
func (r *Runner) recordShared(bench string, tc *traceCall, sc obs.SpanContext) {
	rsc := sc.StartRun("record", "", bench)
	defer rsc.End()
	if prog, rec, err := r.startRecording(bench, tc); err == nil {
		r.finishRecording(bench, tc, prog, rec)
	}
}

// progressStride is the committed-instruction spacing of RunProgress
// events: coarse enough to stay off the cycle loop's hot path, fine
// enough that a streaming client sees motion.
func (r *Runner) progressStride() uint64 {
	return uint64(max(r.opts.Scale/8, 4096))
}

// timedRun executes one timing simulation built by mk, wired to the
// runner's context and progress observation. When phase is non-empty
// and sc active, a phase span ("emulate", "replay") covers the
// simulator's construction and execution.
func (r *Runner) timedRun(sc obs.SpanContext, phase string, cfg config.Config, bench string, mk func() (*pipeline.Simulator, error)) (*stats.Sim, error) {
	if phase != "" {
		psc := sc.Start(phase)
		defer psc.End()
	}
	sim, err := mk()
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", cfg.Name, bench, err)
	}
	sim.SetContext(r.ctx)
	if r.opts.Progress != nil {
		target := uint64(r.opts.Scale)
		sim.SetProgress(r.progressStride(), func(committed uint64) {
			r.emit(ProgressEvent{Kind: RunProgress, Cfg: cfg.Name, Bench: bench,
				Committed: committed, Target: target})
		})
	}
	st, err := sim.Run(uint64(r.opts.Scale))
	r.collectHot(sim.HotStats())
	if err != nil {
		return nil, fmt.Errorf("experiments: %s/%s: %w", cfg.Name, bench, err)
	}
	return st, nil
}

// RunAll submits every spec to the worker pool at once and returns the
// statistics in spec order. The first error (in spec order) is returned
// after all runs settle, so a failed batch leaves no simulation in
// flight.
func (r *Runner) RunAll(specs []RunSpec) ([]*stats.Sim, error) {
	out := make([]*stats.Sim, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s RunSpec) {
			defer wg.Done()
			out[i], errs[i] = r.Run(s.Cfg, s.Bench)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Prefetch begins computing the given runs in the background without
// waiting for them. Submission fans out over at most Workers feeder
// goroutines that pull specs from a shared cursor, so a large sweep does
// not spawn one goroutine per spec ahead of the semaphore. Errors are not
// reported here; they resurface from the memo when Run or RunAll later
// requests the same key. Cancelling the runner's context stops the
// feeders from starting further specs; runs already executing abort
// through their own context polling.
func (r *Runner) Prefetch(specs []RunSpec) {
	if len(specs) == 0 {
		return
	}
	specs = append([]RunSpec(nil), specs...)
	next := new(atomic.Int64)
	for n := min(len(specs), r.opts.Workers); n > 0; n-- {
		go func() {
			for r.ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				_, _ = r.Run(specs[i].Cfg, specs[i].Bench)
			}
		}()
	}
}

// each runs fn(0..n-1) on the runner's worker pool and returns the first
// error in index order. It is used for per-benchmark work that does not
// go through the simulation cache (e.g. the functional-emulation pass of
// VecLen) so that it shares the same concurrency bound. fn holds a pool
// slot for its whole duration and therefore must not call Run/RunAll:
// with Workers=1 the nested acquisition would deadlock.
func (r *Runner) each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case r.sem <- struct{}{}:
			case <-r.ctx.Done():
				errs[i] = r.ctx.Err()
				return
			}
			defer func() { <-r.sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// suiteSpecs returns the full (cfg × benchmark) fan-out for each config,
// in presentation order.
func suiteSpecs(cfgs ...config.Config) []RunSpec {
	names := workload.Names()
	specs := make([]RunSpec, 0, len(cfgs)*len(names))
	for _, cfg := range cfgs {
		for _, n := range names {
			specs = append(specs, RunSpec{Cfg: cfg, Bench: n})
		}
	}
	return specs
}

// perBenchmark runs every benchmark under cfg (submitting the whole suite
// to the pool at once) and invokes get to extract one row of values; INT,
// FP and Spec95 aggregate rows (arithmetic means, matching the paper's
// bar charts) are appended. get is called sequentially in presentation
// order, so it need not be safe for concurrent use.
func (r *Runner) perBenchmark(cfg config.Config, get func(*stats.Sim) []float64) ([]Row, error) {
	names := workload.Names()
	sims, err := r.RunAll(suiteSpecs(cfg))
	if err != nil {
		return nil, err
	}
	var rows []Row
	var intAgg, fpAgg, allAgg [][]float64
	for i, name := range names {
		vals := get(sims[i])
		rows = append(rows, Row{Name: name, Cells: vals})
		b, _ := workload.Get(name)
		if b.FP {
			fpAgg = append(fpAgg, vals)
		} else {
			intAgg = append(intAgg, vals)
		}
		allAgg = append(allAgg, vals)
	}
	return appendAggregates(rows, intAgg, fpAgg, allAgg), nil
}

// appendAggregates appends the INT / FP / Spec95 mean rows. A benchmark
// class with no members contributes no row at all: meanRows(nil) is nil,
// and a named row with nil cells would make downstream consumers
// (sweepTable's Cells[0], Table.Render) index past the slice.
func appendAggregates(rows []Row, intAgg, fpAgg, allAgg [][]float64) []Row {
	for _, agg := range []struct {
		name string
		vals [][]float64
	}{{"INT", intAgg}, {"FP", fpAgg}, {"Spec95", allAgg}} {
		if len(agg.vals) == 0 {
			continue
		}
		rows = append(rows, Row{Name: agg.name, Cells: meanRows(agg.vals)})
	}
	return rows
}

func meanRows(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float64, len(rows[0]))
	for _, r := range rows {
		for i, v := range r {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(rows))
	}
	return out
}
