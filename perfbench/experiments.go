package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The experiment set shared by paper-eval and cluster-exp: its untimed
// reference, the golden digest, and the per-run bookkeeping both
// workloads derive their experiment-layer metrics from.

// goldenSeed is the seed whose reference digest golden.json pins.
const goldenSeed = 1

// runPair names one (configuration, benchmark) result. Progress events
// carry only the configuration's name, so the variants some experiments
// run under a base name (ablations, Unbounded, BlockScalarOperand) share
// the pair of their base configuration.
type runPair struct{ Cfg, Bench string }

// expReference is the output of one fresh sequential Runner over the
// whole experiment set.
type expReference struct {
	Rendered  map[string]string  // experiment id -> rendered tables
	Requests  map[string]int     // experiment id -> results it requested
	Delivered map[string]float64 // experiment id -> committed instructions of those results
	Committed map[runPair]uint64
	Digest    string
}

// committedOf returns the instructions one result of p commits, that of
// the base configuration for a variant run under its name.
func (ref *expReference) committedOf(p runPair) float64 {
	return float64(ref.Committed[p])
}

// experimentReference runs every experiment in order on a fresh
// sequential Runner. Each experiment's run-done events are attributed to
// it. The golden digest covers the rendered tables and the
// (benchmark, configuration, Committed, Cycles) tuple of every distinct
// (configuration name, benchmark) pair the set requested, simulated with
// the base configuration of that name. A variant's own results reach the
// digest only through the tables, which print rounded suite means.
func experimentReference(scale int, seed int64, shards int) (*expReference, error) {
	var mu sync.Mutex
	cur := ""
	events := map[string][]runPair{}
	r, err := newRunner(runnerOpts{Scale: scale, Seed: seed, Workers: 1, Shards: shards,
		Progress: func(ev progressEvent) {
			if ev.Kind != "run-done" {
				return
			}
			mu.Lock()
			if cur != "" {
				events[cur] = append(events[cur], runPair{ev.Cfg, ev.Bench})
			}
			mu.Unlock()
		}})
	if err != nil {
		return nil, err
	}
	ref := &expReference{
		Rendered: map[string]string{}, Requests: map[string]int{},
		Delivered: map[string]float64{}, Committed: map[runPair]uint64{},
	}
	h := sha256.New()
	for _, id := range experimentIDs() {
		mu.Lock()
		cur = id
		mu.Unlock()
		out, err := r.runExperiment(id)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", id, err)
		}
		ref.Rendered[id] = out
		h.Write([]byte(out))
	}
	mu.Lock()
	cur = ""
	pairs := map[runPair]bool{}
	for _, evs := range events {
		for _, p := range evs {
			pairs[p] = true
		}
	}
	mu.Unlock()
	var tuples []string
	for p := range pairs {
		res, err := r.sim(p.Cfg, p.Bench)
		if err != nil {
			return nil, fmt.Errorf("reference %s/%s: %w", p.Cfg, p.Bench, err)
		}
		ref.Committed[p] = res.Committed
		tuples = append(tuples, fmt.Sprintf("%s %s %d %d\n", p.Bench, p.Cfg, res.Committed, res.Cycles))
	}
	sort.Strings(tuples)
	for _, t := range tuples {
		h.Write([]byte(t))
	}
	ref.Digest = hex.EncodeToString(h.Sum(nil))
	for id, evs := range events {
		ref.Requests[id] = len(evs)
		for _, p := range evs {
			ref.Delivered[id] += ref.committedOf(p)
		}
	}
	return ref, nil
}

// goldenCheck compares digest with the golden digest of workload when
// seed is the golden seed. It is one output check.
func goldenCheck(root, workload string, seed int64, digest string) (checks, error) {
	var c checks
	if seed != goldenSeed {
		return c, nil
	}
	b, err := os.ReadFile(filepath.Join(root, "perfbench", "golden.json"))
	if err != nil {
		return c, err
	}
	var golden map[string]string
	if err := json.Unmarshal(b, &golden); err != nil {
		return c, fmt.Errorf("golden.json: %w", err)
	}
	want, ok := golden[workload]
	c.add(ok && want == digest, fmt.Sprintf("golden digest of %s: got %s, want %q", workload, digest, want))
	return c, nil
}

// referenceDigest computes the workload's reference digest for --seed.
func referenceDigest(w workloadRunner, e *env) (string, error) {
	d, ok := w.(interface{ digest(*env) (string, error) })
	if !ok {
		return "", fmt.Errorf("workload has no reference digest")
	}
	return d.digest(e)
}

// runLog collects the run lifecycle of a traced phase: simulations as
// intervals, plus the windows of the operations (experiments or jobs)
// they belong to. Times are seconds since the tracer started.
type runLog struct {
	mu      sync.Mutex
	open    map[string][]float64 // "pass/cfg/bench" -> start times of runs in flight
	runs    [][2]float64
	windows [][2]float64
	results int // results requested (run-done events, memoised ones included)
}

func newRunLog() *runLog { return &runLog{open: map[string][]float64{}} }

func (l *runLog) started(key string, at float64) {
	l.mu.Lock()
	l.open[key] = append(l.open[key], at)
	l.mu.Unlock()
}

// finished closes the oldest open run under key and returns its start.
// Variants sharing a base name share a key, so two of them in flight at
// once may swap starts: the busy time they add is the same either way,
// their single durations are not.
func (l *runLog) finished(key string, at float64) (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	starts := l.open[key]
	if len(starts) == 0 {
		return 0, false
	}
	l.open[key] = starts[1:]
	l.runs = append(l.runs, [2]float64{starts[0], at})
	return starts[0], true
}

// requested counts one result requested.
func (l *runLog) requested() {
	l.mu.Lock()
	l.results++
	l.mu.Unlock()
}

func (l *runLog) resultsRequested() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return float64(l.results)
}

func (l *runLog) window(start, end float64) {
	l.mu.Lock()
	l.windows = append(l.windows, [2]float64{start, end})
	l.mu.Unlock()
}

// metrics derives the experiment-layer run metrics: run duration median
// and maximum, the pool's busy share over elapsed seconds, and the pool
// idle time at the tails of the operations (from each operation's last
// run start to its end, idle worker-seconds over workers).
func (l *runLog) metrics(workers int, elapsed float64) metricSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	var durs []float64
	busy := 0.0
	for _, r := range l.runs {
		durs = append(durs, (r[1]-r[0])*1e3)
		busy += r[1] - r[0]
	}
	idle := 0.0
	for _, w := range l.windows {
		idle += tailIdle(w, l.runs, workers)
	}
	return metricSet{
		"experiments.run_ms_p50":      median(durs),
		"experiments.run_ms_max":      maxOf(durs),
		"experiments.pool_busy_share": busy / (float64(workers) * elapsed),
		"experiments.tail_idle_s":     idle,
	}
}

// tailIdle integrates idle workers over the tail of window w: from the
// last run start inside w to w's end, divided by workers.
func tailIdle(w [2]float64, runs [][2]float64, workers int) float64 {
	last := -1.0
	for _, r := range runs {
		if r[0] >= w[0] && r[0] <= w[1] && r[0] > last {
			last = r[0]
		}
	}
	if last < 0 {
		return 0
	}
	cuts := []float64{last, w[1]}
	for _, r := range runs {
		if r[1] > last && r[1] < w[1] {
			cuts = append(cuts, r[1])
		}
	}
	sort.Float64s(cuts)
	idle := 0.0
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		mid := (a + b) / 2
		running := 0
		for _, r := range runs {
			if r[0] <= mid && r[1] >= mid {
				running++
			}
		}
		idle += float64(max(workers-running, 0)) * (b - a)
	}
	return idle / float64(workers)
}

// since is seconds from the tracer's base to t.
func (t *tracer) since(at time.Time) float64 { return at.Sub(t.base).Seconds() }

// pairKey renders a run's identity within one pass.
func pairKey(pass int, cfg, bench string) string {
	return fmt.Sprintf("%d/%s/%s", pass, cfg, bench)
}

// firstLines trims a rendered table to its first lines for a mismatch
// report.
func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, " | ")
}
