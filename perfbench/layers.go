package main

// Every direct call the benchmark makes into the repository's packages
// lives in this file. The rest of the benchmark drives the system through
// these wrappers and the daemon's HTTP API, so retargeting a layer (a new
// replay source, a renamed entry point) changes this file only.
//
// The benchmark uses the default execution shape throughout: it never
// sets experiments.Options.Gang or NoSharedTraces, nor the daemon's Gang,
// and never touches trace.Decoded or its cursors.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"time"

	"specvec/internal/config"
	"specvec/internal/emu"
	"specvec/internal/experiments"
	"specvec/internal/isa"
	"specvec/internal/pipeline"
	"specvec/internal/server"
	"specvec/internal/stats"
	"specvec/internal/trace"
	"specvec/internal/workload"
	"specvec/internal/wspec"
)

// ---- experiments -----------------------------------------------------

// progressEvent is one experiments.ProgressEvent, stamped on arrival.
type progressEvent struct {
	At     time.Time
	Kind   string // run-started, run-progress, shard-done, run-done
	Cfg    string
	Bench  string
	Cached bool
	Err    error
}

// runnerOpts are the experiments.Options the benchmark varies. Everything
// else stays at its default.
type runnerOpts struct {
	Scale    int
	Seed     int64
	Workers  int
	Shards   int
	Progress func(progressEvent)
	// Specs, when non-empty, is a workload-spec document whose generated
	// workloads the runner resolves by name (as the daemon does for a
	// job carrying a specs payload).
	Specs []byte
}

// runner is an in-process experiments.Runner.
type runner struct{ r *experiments.Runner }

func newRunner(o runnerOpts) (*runner, error) {
	opts := experiments.Options{Scale: o.Scale, Seed: o.Seed, Workers: o.Workers, Shards: o.Shards}
	if o.Progress != nil {
		fn := o.Progress
		opts.Progress = func(ev experiments.ProgressEvent) {
			fn(progressEvent{At: time.Now(), Kind: ev.Kind.String(), Cfg: ev.Cfg, Bench: ev.Bench, Cached: ev.Cached, Err: ev.Err})
		}
	}
	if len(o.Specs) > 0 {
		benches, err := compileSpecs(o.Specs)
		if err != nil {
			return nil, err
		}
		opts.Workloads = func(name string) (workload.Benchmark, error) {
			for _, b := range benches {
				if b.Name == name {
					return b, nil
				}
			}
			return workload.Get(name)
		}
	}
	return &runner{experiments.NewRunner(opts)}, nil
}

// experimentIDs lists experiments.All() in order.
func experimentIDs() []string {
	var ids []string
	for _, e := range experiments.All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// runExperiment runs one experiment and renders its tables the way
// sdvexp prints them.
func (r *runner) runExperiment(id string) (string, error) {
	e, err := experiments.Get(id)
	if err != nil {
		return "", err
	}
	tables, err := e.Run(r.r)
	if err != nil {
		return "", err
	}
	return renderTables(tables), nil
}

func renderTables(tables []*experiments.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// simResult is what the benchmark keeps of one simulation: its stable
// JSON encoding (the byte-for-byte check) and the two counts the golden
// digest and the delivered-instruction metric use.
type simResult struct {
	JSON      []byte
	Committed uint64
	Cycles    uint64
}

func newSimResult(st *stats.Sim) (simResult, error) {
	b, err := json.Marshal(st)
	if err != nil {
		return simResult{}, err
	}
	return simResult{JSON: b, Committed: st.Committed, Cycles: st.Cycles}, nil
}

// sim runs (or fetches from the memo) one named configuration on bench.
func (r *runner) sim(cfgName, bench string) (simResult, error) {
	cfg, err := configByName(cfgName)
	if err != nil {
		return simResult{}, err
	}
	st, err := r.r.Run(cfg, bench)
	if err != nil {
		return simResult{}, err
	}
	return newSimResult(st)
}

// runnerCounters are the Runner's public getters.
type runnerCounters struct {
	Sims, Recordings, Replays int64
}

func (r *runner) counters() runnerCounters {
	return runnerCounters{
		Sims: r.r.Simulations(), Recordings: r.r.TraceRecordings(),
		Replays: r.r.TraceReplays(),
	}
}

// ---- configurations and workloads ------------------------------------

func configByName(name string) (config.Config, error) {
	for _, c := range config.Matrix() {
		if c.Name == name {
			return c, nil
		}
	}
	return config.Config{}, fmt.Errorf("unknown config %q", name)
}

// configNames lists the 18 paper configurations in presentation order.
func configNames() []string {
	var out []string
	for _, c := range config.Matrix() {
		out = append(out, c.Name)
	}
	return out
}

// benchmarkNames lists the built-in benchmarks in presentation order.
func benchmarkNames() []string { return workload.Names() }

// specWorkloads parses a workload-spec document and returns the names
// it defines.
func specWorkloads(doc []byte) ([]string, error) {
	f, err := wspec.Parse(doc)
	if err != nil {
		return nil, err
	}
	return f.Names(), nil
}

// compileSpecs is the wspec layer: Parse plus CompileSpec of every
// workload in doc.
func compileSpecs(doc []byte) ([]workload.Benchmark, error) {
	f, err := wspec.Parse(doc)
	if err != nil {
		return nil, err
	}
	out := make([]workload.Benchmark, len(f.Workloads))
	for i, w := range f.Workloads {
		out[i] = wspec.CompileSpec(w)
	}
	return out, nil
}

// program is a built benchmark program.
type program = isa.Program

// buildBuiltin is the workload layer: Benchmark.Build of a built-in.
func buildBuiltin(bench string, scale int, seed int64) (*program, error) {
	b, err := workload.Get(bench)
	if err != nil {
		return nil, err
	}
	return b.Build(scale, seed), nil
}

func buildCompiled(b workload.Benchmark, scale int, seed int64) *program {
	return b.Build(scale, seed)
}

// ---- emu, trace and pipeline entry points ----------------------------

// emulate is the emu layer: Machine.Run for up to limit instructions.
func emulate(prog *program, limit uint64) (uint64, error) {
	m, err := emu.New(prog)
	if err != nil {
		return 0, err
	}
	n, err := m.Run(limit)
	if err == emu.ErrLimit {
		err = nil
	}
	return n, err
}

// recording is a finished trace recording.
type recording = trace.Trace

// record is the trace record layer: a functional Recorder pass to target
// records, embedding a checkpoint every ckptEvery records when > 0.
func record(prog *program, target, ckptEvery int) (*recording, error) {
	m, err := emu.New(prog)
	if err != nil {
		return nil, err
	}
	rec, err := trace.NewRecorder(m, prog, 0)
	if err != nil {
		return nil, err
	}
	if ckptEvery > 0 {
		if err := rec.EnableCheckpoints(ckptEvery); err != nil {
			return nil, err
		}
	}
	rec.Reserve(target)
	return rec.Finish(target)
}

// recordTarget is the length the experiments runner records to.
func recordTarget(scale int) int { return scale + trace.RecordSlack }

// defaultCheckpointEvery is the checkpoint spacing sharded runs record
// with.
func defaultCheckpointEvery() int {
	return experiments.Options{Shards: 2}.WithDefaults().CheckpointEvery
}

func encodeTrace(tr *recording) ([]byte, error) { return tr.EncodeBytes() }

func decodeTrace(b []byte) (*recording, error) { return trace.DecodeBytes(b) }

// drainReplay is the replay source on its own: every record of tr pulled
// through the windowed Replayer with no cycle loop.
func drainReplay(tr *recording, cfgName string) (int, error) {
	cfg, err := configByName(cfgName)
	if err != nil {
		return 0, err
	}
	src := trace.NewReplayer(tr, pipeline.SourceWindow(cfg))
	n := 0
	for {
		if _, ok := src.NextRef(); !ok {
			return n, nil
		}
		n++
	}
}

// pipelineRun is one cycle-loop run's outcome.
type pipelineRun struct {
	Committed, Cycles uint64
	UopNews, VopNews  uint64
}

// replaySim is the pipeline layer fed by the default replay source:
// NewFromSource over a Replayer, then Run.
func replaySim(cfgName string, tr *recording, scale int) (pipelineRun, error) {
	cfg, err := configByName(cfgName)
	if err != nil {
		return pipelineRun{}, err
	}
	sim, err := pipeline.NewFromSource(cfg, trace.NewReplayer(tr, pipeline.SourceWindow(cfg)))
	if err != nil {
		return pipelineRun{}, err
	}
	return runSim(sim, scale)
}

// recordingSim is the pipeline layer fed by a live Recorder, as the
// first configuration of a benchmark runs.
func recordingSim(cfgName string, prog *program, scale int) (pipelineRun, error) {
	cfg, err := configByName(cfgName)
	if err != nil {
		return pipelineRun{}, err
	}
	m, err := emu.New(prog)
	if err != nil {
		return pipelineRun{}, err
	}
	rec, err := trace.NewRecorder(m, prog, pipeline.SourceWindow(cfg))
	if err != nil {
		return pipelineRun{}, err
	}
	rec.Reserve(recordTarget(scale))
	sim, err := pipeline.NewFromSource(cfg, rec)
	if err != nil {
		return pipelineRun{}, err
	}
	return runSim(sim, scale)
}

func runSim(sim *pipeline.Simulator, scale int) (pipelineRun, error) {
	st, err := sim.Run(uint64(scale))
	if err != nil {
		return pipelineRun{}, err
	}
	h := sim.HotStats()
	return pipelineRun{Committed: st.Committed, Cycles: st.Cycles, UopNews: h.UopNews, VopNews: h.VopNews}, nil
}

// ---- the daemon ------------------------------------------------------

// daemonOpts are the server.Options the benchmark varies. Everything else
// stays at its default.
type daemonOpts struct {
	CacheDir     string
	CacheEntries int
	Coordinator  bool
	JoinURL      string // non-empty: run as a worker joining this coordinator
}

// daemon is an in-process server.Server on a loopback listener.
type daemon struct {
	URL    string
	cancel context.CancelFunc
	done   chan error
}

func startDaemon(o daemonOpts) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Options{
		CacheDir:     o.CacheDir,
		CacheEntries: o.CacheEntries,
		Coordinator:  o.Coordinator,
		Worker:       o.JoinURL != "",
		JoinURL:      o.JoinURL,
	})
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{URL: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { d.done <- srv.Serve(ctx, ln) }()
	return d, nil
}

// stop shuts the daemon down and waits for it to finish.
func (d *daemon) stop() error {
	d.cancel()
	return <-d.done
}

// Wire types of the daemon's HTTP API.
type (
	jobSpec  = server.JobSpec
	jobView  = server.JobView
	timeline struct {
		ID   string        `json:"id"`
		Root *timelineNode `json:"root"`
	}
	timelineNode struct {
		Name       string          `json:"name"`
		Cfg        string          `json:"cfg,omitempty"`
		Bench      string          `json:"bench,omitempty"`
		Remote     bool            `json:"remote,omitempty"`
		StartUs    int64           `json:"startUs"`
		DurationUs int64           `json:"durationUs"`
		Children   []*timelineNode `json:"children,omitempty"`
	}
	workerView = server.WorkerView
)

const (
	kindExperiment = server.KindExperiment
	kindSim        = server.KindSim
	stateDone      = server.StateDone
)

// jobResult is a job's decoded result: rendered tables for experiment
// jobs, the stats JSON for sim jobs.
type jobResult struct {
	Rendered string
	Stats    []byte // compact JSON
}

func decodeJobResult(raw json.RawMessage) (jobResult, error) {
	var res server.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return jobResult{}, err
	}
	var stats struct {
		Stats json.RawMessage `json:"stats"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		return jobResult{}, err
	}
	// The daemon indents its replies; the result it cached, and the
	// reference, are compact.
	var compact bytes.Buffer
	if len(stats.Stats) > 0 {
		if err := json.Compact(&compact, stats.Stats); err != nil {
			return jobResult{}, err
		}
	}
	return jobResult{Rendered: renderTables(res.Tables), Stats: compact.Bytes()}, nil
}
