package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"specvec/internal/experiments"
	"specvec/internal/obs"
	"specvec/internal/profile"
	"specvec/internal/workload"
	"specvec/internal/wspec"
)

// ErrQueueFull rejects submissions when the bounded job queue is at
// capacity; clients should retry with backoff (the HTTP layer maps it to
// 503 + Retry-After).
var ErrQueueFull = errors.New("server: job queue full")

// ErrShutdown rejects submissions after Close.
var ErrShutdown = errors.New("server: shutting down")

// scheduler owns the bounded job queue and the worker pool that drains
// it. Each job executes on its own experiments.Runner (bounded to
// SimWorkers concurrent simulations) with its own cancellable context;
// results flow through the content-addressed cache, so identical specs —
// concurrent or repeated — simulate at most once.
type scheduler struct {
	cache   *Cache
	traces  *traceCache
	workers int // per-job simulation workers
	// remote, when non-nil, is the cluster placement layer every job's
	// replay work dispatches through (set on a coordinator). Execution
	// shape only: results and cache keys are unaffected.
	remote  experiments.RemoteShards
	history int // terminal jobs retained in the registry
	logf    func(format string, args ...any)

	baseCtx context.Context
	stop    context.CancelFunc
	queue   chan *Job
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool // set by Close under mu; rejects further submissions
	jobs   map[string]*Job
	order  []string // submission order, for listing
	seq    int64

	// clock times jobs (queue wait, phase spans); tests inject a manual
	// one. The obs counters below carry their final /metrics names and
	// are registered by Server.buildRegistry.
	clock     obs.Clock
	metrics   *serverMetrics
	timelines *obs.TimelineStore // completed job span trees

	submitted, completed, failed, cancelled *obs.Counter
	running                                 *obs.Gauge

	// Runner counters aggregated across every job.
	sims, recorded, replayed, traceLoads *obs.Counter
	hotMu                                sync.Mutex
	hot                                  profile.HotStats
}

func newScheduler(jobWorkers, queueDepth, simWorkers, history int, cache *Cache, traces *traceCache, logf func(string, ...any)) *scheduler {
	if jobWorkers <= 0 {
		jobWorkers = 2
	}
	if queueDepth <= 0 {
		queueDepth = 64
	}
	if simWorkers <= 0 {
		simWorkers = runtime.GOMAXPROCS(0)
	}
	if history <= 0 {
		history = 512
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &scheduler{
		cache:     cache,
		traces:    traces,
		workers:   simWorkers,
		history:   history,
		logf:      logf,
		baseCtx:   ctx,
		stop:      stop,
		queue:     make(chan *Job, queueDepth),
		jobs:      map[string]*Job{},
		clock:     obs.RealClock(),
		metrics:   newServerMetrics(),
		timelines: obs.NewTimelineStore(history),

		submitted: obs.NewCounter("sdvd_jobs_submitted_total"),
		completed: obs.NewCounter("sdvd_jobs_completed_total"),
		failed:    obs.NewCounter("sdvd_jobs_failed_total"),
		cancelled: obs.NewCounter("sdvd_jobs_cancelled_total"),
		running:   obs.NewGauge("sdvd_jobs_running"),

		sims:       obs.NewCounter("sdvd_sims_total"),
		recorded:   obs.NewCounter("sdvd_trace_recordings_total"),
		replayed:   obs.NewCounter("sdvd_trace_replays_total"),
		traceLoads: obs.NewCounter("sdvd_runner_trace_loads_total"),
	}
	for i := 0; i < jobWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Close stops the workers. Queued jobs resolve as cancelled; the running
// ones abort through their contexts. The closed flag is flipped under
// the same mutex Submit enqueues under, and the queue is drained again
// after the workers exit, so no job can slip in unresolved — a ?wait=1
// client never blocks on a job nobody will run.
func (s *scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.stop()
	s.wg.Wait()
	for {
		select {
		case job := <-s.queue:
			job.finish(nil, SourceComputed, ErrShutdown, true)
		default:
			return
		}
	}
}

// Submit queues a normalized spec. tied, when non-nil, is a request
// context the job is additionally bound to (an abandoned synchronous
// request cancels its job). Returns ErrQueueFull when the queue is at
// capacity.
func (s *scheduler) Submit(spec JobSpec, tied context.Context) (*Job, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrShutdown
	}
	s.seq++
	id := fmt.Sprintf("j%06d", s.seq)
	job := newJob(id, spec, spec.Key())
	job.tied = tied
	// The job's trace opens at submission: the root span is the job's
	// whole lifetime and queue-wait measures submission to pickup.
	job.trace = obs.NewTrace(id, s.clock, "job")
	job.queueSpan = job.trace.Start(obs.RootSpan, "queue-wait")
	// The job's context exists from submission so cancelling a queued job
	// works; the worker that eventually picks it up observes the
	// already-cancelled context and resolves it without simulating.
	job.ctx, job.cancel = context.WithCancel(s.baseCtx)
	// Enqueue under the mutex: the send never blocks (bounded channel,
	// non-blocking select) and holding mu here is what makes Close's
	// closed-then-drain sequence airtight.
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		job.cancel() // release the context before dropping the job
		return nil, ErrQueueFull
	}
	s.jobs[id] = job
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.submitted.Add(1)
	s.logf("job %s queued: %s (key %.12s…)", id, spec.Title(), job.Key)
	return job, nil
}

// Job returns a job by id.
func (s *scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every job in submission order.
func (s *scheduler) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// QueueDepth returns the number of jobs waiting for a worker.
func (s *scheduler) QueueDepth() int { return len(s.queue) }

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		select {
		case job := <-s.queue:
			s.run(job)
		case <-s.baseCtx.Done():
			// Drain whatever is left so queued jobs resolve instead of
			// dangling.
			for {
				select {
				case job := <-s.queue:
					job.finish(nil, SourceComputed, ErrShutdown, true)
				default:
					return
				}
			}
		}
	}
}

// run executes one job to a terminal state.
func (s *scheduler) run(job *Job) {
	ctx := job.ctx
	defer job.cancel()
	if job.tied != nil {
		// A job submitted synchronously dies with its request: when the
		// client abandons the wait, the simulations stop burning workers.
		stop := context.AfterFunc(job.tied, job.cancel)
		defer stop()
	}

	job.setRunning()
	s.running.Add(1)
	defer s.running.Add(-1)

	tr := job.trace
	tr.End(job.queueSpan)
	s.metrics.queueWait.Observe(tr.Duration(job.queueSpan).Seconds())

	// cache-lookup covers the time before any computation: the memory
	// and disk checks, or — for a coalesced follower — the whole wait on
	// the in-flight leader. A true miss ends it the moment the compute
	// closure starts and opens the compute span in its place; the
	// trailing End is the idempotent no-op on that path.
	lookup := tr.Start(obs.RootSpan, "cache-lookup")
	val, src, err := s.cache.GetOrCompute(ctx, job.Key, func() ([]byte, error) {
		tr.End(lookup)
		comp := tr.Start(obs.RootSpan, "compute")
		defer tr.End(comp)
		cctx := obs.ContextWith(ctx, obs.SpanContext{T: tr, Span: comp})
		return s.compute(cctx, job)
	})
	tr.End(lookup)
	s.metrics.cacheLookup.Observe(tr.Duration(lookup).Seconds())

	cancelledErr := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	switch {
	case err == nil:
		s.completed.Add(1)
		s.logf("job %s %s (%s, %d bytes)", job.ID, StateDone, src, len(val))
	case cancelledErr:
		s.cancelled.Add(1)
		s.logf("job %s cancelled", job.ID)
	default:
		s.failed.Add(1)
		s.logf("job %s failed: %v", job.ID, err)
	}
	// The timeline is published before the job resolves: finish closes
	// job.done, which wakes synchronous submitters, and a client that
	// then GETs the timeline immediately must find it.
	state := StateDone
	switch {
	case cancelledErr:
		state = StateCancelled
	case err != nil:
		state = StateFailed
	}
	s.finishTimeline(job, state)
	job.finish(val, src, err, cancelledErr)
	s.prune()
}

// finishTimeline closes the job's trace, feeds the duration histograms
// and publishes the span tree to the timeline ring.
func (s *scheduler) finishTimeline(job *Job, state JobState) {
	tr := job.trace
	tr.Finish()
	kind := job.Spec.Kind
	s.metrics.jobDuration.With(kind, "total").Observe(tr.Duration(obs.RootSpan).Seconds())
	for _, sp := range tr.Snapshot() {
		if sp.Parent == obs.RootSpan && sp.End >= 0 {
			s.metrics.jobDuration.With(kind, sp.Name).Observe((sp.End - sp.Start).Seconds())
		}
	}
	s.timelines.Add(obs.NewTimeline(job.ID, kind, string(state), tr, s.clock.Now()))
}

// prune evicts the oldest terminal jobs past the retention bound, so a
// long-running daemon's registry — jobs carry their result bytes and
// event history — stays bounded by history + queue depth + workers
// (queued and running jobs are never evicted). Evicted job ids answer
// 404; their results remain reachable through the content-addressed
// cache by resubmitting the spec.
func (s *scheduler) prune() {
	s.mu.Lock()
	defer s.mu.Unlock()
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].State().Terminal() {
			terminal++
		}
	}
	if terminal <= s.history {
		return
	}
	keep := s.order[:0]
	for _, id := range s.order {
		if terminal > s.history && s.jobs[id].State().Terminal() {
			delete(s.jobs, id)
			terminal--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
}

// compute runs the spec on a fresh Runner and encodes the Result. The
// runner's counters fold into the scheduler aggregates even on failure.
func (s *scheduler) compute(ctx context.Context, job *Job) ([]byte, error) {
	spec := job.Spec
	opts := experiments.Options{
		Scale:           spec.Scale,
		Seed:            spec.Seed,
		Workers:         s.workers,
		Shards:          spec.Shards,
		CheckpointEvery: spec.CheckpointEvery,
		Context:         ctx,
		Progress:        job.progressHook,
	}.WithDefaults()
	opts.Remote = s.remote
	// A job carrying a workload-spec payload resolves its generated
	// workloads through a per-job resolver, so concurrent jobs with
	// different spec files never observe each other's definitions, and
	// its trace artifacts are additionally scoped by the payload's hash
	// (same name, different definition, different recording).
	var specFile *wspec.File
	if spec.Specs != "" {
		f, err := wspec.Parse([]byte(spec.Specs))
		if err != nil {
			return nil, err
		}
		specFile = f
		compiled := map[string]workload.Benchmark{}
		for _, w := range f.Workloads {
			compiled[w.Name] = wspec.CompileSpec(w)
		}
		opts.Workloads = func(name string) (workload.Benchmark, error) {
			if b, ok := compiled[name]; ok {
				return b, nil
			}
			return workload.Get(name)
		}
	}
	if s.traces != nil {
		if spec.Specs != "" {
			sum := sha256.Sum256([]byte(spec.Specs))
			opts.Traces = s.traces.forOptionsWith(opts, hex.EncodeToString(sum[:6]))
		} else {
			opts.Traces = s.traces.forOptions(opts)
		}
	}
	runner := experiments.NewRunner(opts)
	defer s.collect(runner)

	res := Result{Spec: spec}
	switch spec.Kind {
	case KindExperiment:
		exp, err := experiments.Get(spec.Exp)
		if err != nil {
			return nil, err
		}
		tables, err := exp.Run(runner)
		if err != nil {
			return nil, err
		}
		res.Tables = tables
	case KindSim:
		cfg, err := configByName(spec.Config)
		if err != nil {
			return nil, err
		}
		st, err := runner.Run(cfg, spec.Workload)
		if err != nil {
			return nil, err
		}
		res.Stats = st
	case KindSweep:
		tables, err := experiments.SpecSweep(runner, specFile.Names())
		if err != nil {
			return nil, err
		}
		res.Tables = tables
	default:
		return nil, fmt.Errorf("server: unknown spec kind %q", spec.Kind)
	}
	return json.Marshal(res)
}

// collect folds a finished runner's counters into the scheduler
// aggregates (served at /metrics).
func (s *scheduler) collect(r *experiments.Runner) {
	s.sims.Add(r.Simulations())
	s.recorded.Add(r.TraceRecordings())
	s.replayed.Add(r.TraceReplays())
	s.traceLoads.Add(r.TraceLoads())
	s.hotMu.Lock()
	s.hot.Add(r.HotStats())
	s.hotMu.Unlock()
}

// hotStats returns the aggregated pipeline pool counters.
func (s *scheduler) hotStats() profile.HotStats {
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	return s.hot
}
