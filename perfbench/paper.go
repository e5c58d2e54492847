package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// paperScale is the per-run instruction count of paper-eval: one pass of
// the experiment set takes a few seconds, so a run measures several.
const paperScale = 60_000

// paperEval runs every experiment of experiments.All(), in order, on one
// Runner with Workers = nproc in exact mode — what `sdvexp -exp all`
// does — as many whole passes as fit the timed phase, each on a fresh
// Runner.
type paperEval struct {
	ref *expReference
	// Counters and run lifecycle of the last traced phase.
	counters runnerCounters
	log      *runLog
}

func (w *paperEval) digest(e *env) (string, error) {
	ref, err := experimentReference(paperScale, e.seed, 1)
	if err != nil {
		return "", err
	}
	return ref.Digest, nil
}

// setup computes the untimed reference: the set-up a pass's output
// check and delivered-instruction count need.
func (w *paperEval) setup(e *env) (float64, error) {
	t0 := time.Now()
	ref, err := experimentReference(paperScale, e.seed, 1)
	if err != nil {
		return 0, err
	}
	w.ref = ref
	return time.Since(t0).Seconds(), nil
}

func (w *paperEval) run(e *env, d float64, tr *tracer) (*phase, error) {
	p := &phase{UnitName: "pass of the experiment set"}
	var delivered atomic.Int64
	var expSpan atomic.Int64
	log := newRunLog()
	var total runnerCounters
	cpu0 := cpuSeconds()
	start := time.Now()
	for pass := 0; time.Since(start).Seconds() < d; pass++ {
		passStart, passCPU := time.Now(), cpuSeconds()
		r, err := newRunner(runnerOpts{Scale: paperScale, Seed: e.seed, Workers: e.workers,
			Progress: func(ev progressEvent) {
				key := runPair{ev.Cfg, ev.Bench}
				if ev.Kind == "run-done" && ev.Err == nil {
					delivered.Add(int64(w.ref.committedOf(key)))
				}
				if tr == nil {
					return
				}
				at := tr.since(ev.At)
				switch ev.Kind {
				case "run-started":
					log.started(pairKey(pass, ev.Cfg, ev.Bench), at)
				case "run-done":
					log.requested()
					if ev.Cached {
						return
					}
					if s, ok := log.finished(pairKey(pass, ev.Cfg, ev.Bench), at); ok {
						tr.add(int(expSpan.Load()), "run", ev.Cfg+"/"+ev.Bench, fmt.Sprintf("pass%d", pass),
							tr.base.Add(secs(s)), ev.At)
					}
				}
			}})
		if err != nil {
			return nil, err
		}
		for _, id := range experimentIDs() {
			before := r.counters().Sims
			id0, end := tr.begin(0, "experiments", id, fmt.Sprintf("pass%d", pass))
			expSpan.Store(int64(id0))
			t0 := time.Now()
			out, err := r.runExperiment(id)
			lat := msSince(t0)
			end()
			if tr != nil {
				log.window(tr.since(t0), tr.since(time.Now()))
			}
			p.Ops++
			switch {
			case err != nil:
				p.Checks.add(false, fmt.Sprintf("%s: %v", id, err))
				continue
			case out != w.ref.Rendered[id]:
				p.Checks.add(false, fmt.Sprintf("%s differs from the reference: %s", id, firstLines(out, 3)))
			default:
				p.Checks.add(true, "")
			}
			if r.counters().Sims == before {
				p.HitMs = append(p.HitMs, lat)
			} else {
				p.MissMs = append(p.MissMs, lat)
			}
		}
		c := r.counters()
		total.Sims += c.Sims
		total.Recordings += c.Recordings
		total.Replays += c.Replays
		p.Units++
		p.UnitSecs = append(p.UnitSecs, time.Since(passStart).Seconds())
		p.UnitCPU = append(p.UnitCPU, cpuSeconds()-passCPU)
	}
	p.Elapsed = time.Since(start).Seconds()
	p.CPUS = cpuSeconds() - cpu0
	p.RSSMB = peakRSSMB()
	p.Delivered = float64(delivered.Load())
	p.Tracer = tr
	w.counters, w.log = total, log
	return p, nil
}

func (w *paperEval) verify(e *env) (checks, error) {
	return goldenCheck(e.root, "paper-eval", e.seed, w.ref.Digest)
}

func (w *paperEval) layers(e *env, p *phase) (metricSet, map[string]string, error) {
	vals := w.log.metrics(e.workers, p.Elapsed)
	addRunnerCounters(vals, w.log.resultsRequested(), w.counters)
	vals["experiments.shard_ms_p50"] = 0
	absent := map[string]string{"experiments.shard_ms_p50": "paper-eval runs in exact mode (Shards 1): no shards"}
	addAbsent(vals, absent, "server.", "paper-eval makes no HTTP calls: the in-process Runner is called directly")
	addAbsent(vals, absent, "cluster.", "paper-eval runs in one process without a cluster")
	return vals, absent, nil
}

func (w *paperEval) ladderItems(e *env) ([]ladderItem, error) {
	return builtinLadder(paperScale, e.seed), nil
}

func (w *paperEval) close() {}

// addRunnerCounters sets the experiment-layer counts: results requested
// and the Runner getters' totals.
func addRunnerCounters(vals metricSet, results float64, c runnerCounters) {
	vals["experiments.results_requested"] = results
	vals["experiments.sims_executed"] = float64(c.Sims)
	vals["experiments.recordings"] = float64(c.Recordings)
	vals["experiments.replays"] = float64(c.Replays)
	vals["experiments.memo_hit_ratio"] = 0
	if results > 0 {
		vals["experiments.memo_hit_ratio"] = 1 - float64(c.Sims)/results
	}
}

// addAbsent sets every per-layer metric starting with prefix to 0 and
// records why it was not measured.
func addAbsent(vals metricSet, absent map[string]string, prefix, why string) {
	for _, d := range perLayer {
		if len(d.Name) > len(prefix) && d.Name[:len(prefix)] == prefix {
			vals[d.Name] = 0
			absent[d.Name] = why
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
