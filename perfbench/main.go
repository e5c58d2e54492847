// Command perfbench is the repository's benchmark. It drives the
// simulator from outside, in one process, through three workloads:
//
//	paper-eval   every experiment of the paper on one in-process Runner
//	serve-mix    a closed loop of sim jobs against an in-process daemon
//	cluster-exp  the experiment set as sharded jobs on a coordinator with
//	             one loopback worker
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload paper-eval --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 prints the end-to-end
// metrics; --trace 1 runs the workload traced and prints the per-layer
// metrics. The line before it is a JSON report with the machine metadata,
// sample counts, tail percentiles and anything not measured. See
// README.md for the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// procStart approximates process start: package variables initialise
// before main runs.
var procStart = time.Now()

// env is what every workload gets from the command line.
type env struct {
	root    string  // repository root (the working directory)
	outDir  string  // scratch space inside the checkout's build directory
	seed    int64   // workload seed
	seconds float64 // timed-phase length
	workers int     // nproc: client count, Runner workers
	// setupStart is when the workload's set-up began; setup_s adds the
	// process start-up before it.
	setupStart time.Time
}

// setupRepeats is how many times the repeatable set-up steps run.
const setupRepeats = 3

// repeatSetup runs step setupRepeats times and returns the median
// duration; cleanup undoes every run but the last.
func repeatSetup(step func() error, cleanup func()) (float64, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			cleanup()
		}
		t0 := time.Now()
		if err := step(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return median(ds), nil
}

// workloadRunner is one benchmark workload.
type workloadRunner interface {
	// setup does everything before the first timed call and returns how
	// long that took; steps cheap enough to repeat are repeated
	// setupRepeats times and count at their median.
	setup(e *env) (float64, error)
	// run executes the timed loop for at least d seconds, recording spans
	// on tr when non-nil.
	run(e *env, d float64, tr *tracer) (*phase, error)
	// verify checks every result the timed phases returned against the
	// untimed reference.
	verify(e *env) (checks, error)
	// layers reports the per-layer metrics of the traced phase p; absent
	// maps a metric the workload cannot measure to the reason.
	layers(e *env, p *phase) (vals metricSet, absent map[string]string, err error)
	// ladderItems are the programs and configurations the traced run
	// replays through the layer entry points.
	ladderItems(e *env) ([]ladderItem, error)
	close()
}

var workloadNames = []string{"paper-eval", "serve-mix", "cluster-exp"}

func newWorkload(name string) (workloadRunner, error) {
	switch name {
	case "paper-eval":
		return &paperEval{}, nil
	case "serve-mix":
		return &serveMix{}, nil
	case "cluster-exp":
		return &clusterExp{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// checks tallies output checks: a failed operation or a result that
// differs from the reference is one failure.
type checks struct {
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	Mismatches []string `json:"mismatches,omitempty"` // the first few, for the report
}

func (c *checks) add(ok bool, what string) {
	c.Attempted++
	if !ok {
		c.Failed++
		if len(c.Mismatches) < 8 {
			c.Mismatches = append(c.Mismatches, what)
		}
	}
}

func (c *checks) merge(o checks) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	for _, m := range o.Mismatches {
		if len(c.Mismatches) < 8 {
			c.Mismatches = append(c.Mismatches, m)
		}
	}
}

// phase is one timed loop's raw measurements.
type phase struct {
	Elapsed   float64 // seconds of timed work
	Ops       int     // completed operations (experiments or jobs)
	Units     float64 // work units host_cpu_s is normalised by
	UnitName  string
	Delivered float64 // committed simulated instructions delivered
	HitMs     []float64
	MissMs    []float64
	CPUS      float64 // user+system CPU seconds of the timed work
	// UnitSecs and UnitCPU hold each whole unit's wall and CPU seconds
	// when the phase repeats identical units; the rates then use the
	// median unit, which a passing burst of load on the host moves less.
	UnitSecs []float64
	UnitCPU  []float64
	RSSMB    float64 // peak RSS when the phase ended
	Checks   checks  // failures seen during the phase itself
	Tracer   *tracer // non-nil for a traced phase
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// endToEnd derives the end-to-end metrics from an untraced phase.
func (p *phase) endToEnd(setupS float64) metricSet {
	// Seconds and CPU seconds of one unit of work: the median unit when
	// the units are identical, else the phase average.
	unitS, unitCPU := p.Elapsed/p.Units, p.CPUS/p.Units
	if len(p.UnitSecs) > 0 {
		unitS, unitCPU = median(p.UnitSecs), median(p.UnitCPU)
	}
	return metricSet{
		"setup_s":               setupS,
		"delivered_minst_per_s": p.Delivered / p.Units / 1e6 / unitS,
		"jobs_per_s":            float64(p.Ops) / p.Units / unitS,
		"host_cpu_s":            unitCPU,
		"peak_rss_mb":           p.RSSMB,
		"hit_ms_p50":            median(p.HitMs),
		"miss_ms_p50":           median(p.MissMs),
	}
}

// summary is the report's view of a phase.
func (p *phase) summary() map[string]any {
	return map[string]any{
		"elapsed_s":       p.Elapsed,
		"ops":             p.Ops,
		"units":           p.Units,
		"unit":            p.UnitName,
		"delivered_minst": p.Delivered / 1e6,
		"cpu_s":           p.CPUS,
		"unit_s":          p.UnitSecs,
		"hit_ms":          latencySummary(p.HitMs),
		"miss_ms":         latencySummary(p.MissMs),
	}
}

func latencySummary(xs []float64) map[string]any {
	return map[string]any{"samples": len(xs), "p50": median(xs), "tail": tailOf(xs)}
}

// runtimeSnap is a runtime/metrics snapshot for the Go runtime layer.
type runtimeSnap struct{ gcCPU, totalCPU, allocBytes, gcCycles float64 }

func readRuntime() runtimeSnap {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	v := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSnap{v(0), v(1), v(2), v(3)}
}

func (s runtimeSnap) since(prev runtimeSnap) metricSet {
	share := 0.0
	if d := s.totalCPU - prev.totalCPU; d > 0 {
		share = (s.gcCPU - prev.gcCPU) / d
	}
	return metricSet{
		"runtime.gc_cpu_share": share,
		"runtime.alloc_gb":     (s.allocBytes - prev.allocBytes) / 1e9,
		"runtime.gc_cycles":    s.gcCycles - prev.gcCycles,
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed         = flag.Int64("seed", 1, "workload seed (1 is also checked against golden.json)")
		seconds      = flag.Int("seconds", 20, "length of the timed phase")
		traceFlag    = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		printDigest  = flag.Bool("print-digest", false, "print the workload's reference digest for --seed and exit")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *traceFlag, *printDigest); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, traceFlag int, printDigest bool) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "internal", "experiments")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	if !filepath.IsAbs(buildDir) {
		buildDir = filepath.Join(root, buildDir)
	}
	outDir, err := os.MkdirTemp(mkdirAll(filepath.Join(buildDir, "perfbench")), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(outDir)
	e := &env{root: root, outDir: outDir, seed: seed, seconds: float64(seconds), workers: runtime.NumCPU(), setupStart: time.Now()}
	defer w.close()

	if printDigest {
		d, err := referenceDigest(w, e)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s\n", name, d)
		return nil
	}

	setupS, err := w.setup(e)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setupS += e.setupStart.Sub(procStart).Seconds()

	report := map[string]any{
		"workload": name, "seed": seed, "seconds": seconds, "trace": traceFlag,
		"machine": readMachine(root), "setup_s": setupS,
	}
	var vals metricSet
	var defs []metricDef
	var all checks
	if traceFlag == 0 {
		p, err := w.run(e, e.seconds, nil)
		if err != nil {
			return err
		}
		all.merge(p.Checks)
		report["phase"] = p.summary()
		vals, defs = p.endToEnd(setupS), endToEnd
	} else {
		vals, err = tracedRun(w, e, report, &all)
		if err != nil {
			return err
		}
		defs = perLayer
	}
	c, err := w.verify(e)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	all.merge(c)
	rendered, err := vals.render(defs)
	if err != nil {
		return err
	}
	report["checks"] = all
	report["failed_frac"] = float64(all.Failed) / float64(max(all.Attempted, 1))
	if err := printJSON(report); err != nil {
		return err
	}
	if all.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	return printJSON(map[string]any{
		"correct": all.Failed == 0, "attempted": all.Attempted, "failed": all.Failed,
		"metrics": rendered,
	})
}

// tracedRun measures an untraced half and a traced half of the timed
// phase, then replays the workload through the layer entry points, and
// returns the per-layer metrics.
func tracedRun(w workloadRunner, e *env, report map[string]any, all *checks) (metricSet, error) {
	half := max(e.seconds/2, 1)
	plain, err := w.run(e, half, nil)
	if err != nil {
		return nil, err
	}
	all.merge(plain.Checks)

	tr := newTracer()
	profPath := filepath.Join(e.outDir, "cpu.prof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	rt0 := readRuntime()
	traced, err := w.run(e, half, tr)
	rt1 := readRuntime()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	all.merge(traced.Checks)

	vals, absent, err := w.layers(e, traced)
	if err != nil {
		return nil, err
	}
	for k, v := range rt1.since(rt0) {
		vals[k] = v
	}
	vals["hit_ms_tail"] = tailOf(plain.HitMs).Value
	vals["miss_ms_tail"] = tailOf(plain.MissMs).Value
	// Traced wall time per unit of work over untraced wall time per unit.
	vals["bench.tracing_overhead"] = (traced.Elapsed / traced.Units) / (plain.Elapsed / plain.Units)

	items, err := w.ladderItems(e)
	if err != nil {
		return nil, err
	}
	lad, err := runLadder(e, items, tr)
	if err != nil {
		return nil, fmt.Errorf("layer ladder: %w", err)
	}
	for k, v := range lad {
		vals[k] = v
	}
	for layer, s := range tr.selfTimes() {
		vals["selftime."+layer+"_s"] = s
	}

	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	top, err := profileTop(exe, profPath)
	if err != nil {
		return nil, err
	}
	sp, err := stageShares(top)
	if err != nil {
		return nil, err
	}
	for s, v := range sp.Shares {
		vals["pipeline.stage."+s] = v
	}

	spansPath := filepath.Join(filepath.Dir(e.outDir), fmt.Sprintf("spans-%s-seed%d.json", report["workload"], e.seed))
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	report["untraced_phase"] = plain.summary()
	report["traced_phase"] = traced.summary()
	report["stage_profile_flat_s"] = sp.FlatS
	report["stage_other_top"] = sp.Other
	report["spans_file"] = spansPath
	report["absent"] = absent
	report["tails_from"] = "untraced half"
	return vals, nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755)
	return dir
}
