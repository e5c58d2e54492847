package main

import (
	"fmt"
	"time"
)

// cluster-exp: the experiment set as one experiment job per experiment
// at shards 2, submitted with ?wait=1 to a coordinator with one loopback
// worker — what `sdvexp -server` does. A unit of work is a pair of
// passes on a fresh coordinator and worker: a cold pass that computes
// every job, then a warm pass the result cache answers. Restarting the
// pair between units is not timed.

const (
	clusterScale  = 20_000
	clusterShards = 2
)

type clusterExp struct {
	ref           *expReference
	coord, worker *daemon
	cl            *client
	used          bool // the running pair already served a unit
	// The last traced phase's observations.
	jobs       []servedJob
	coldJobs   []string // experiment ids of the cold-pass jobs
	metricsSum map[string]float64
}

func (w *clusterExp) digest(e *env) (string, error) {
	ref, err := experimentReference(clusterScale, e.seed, clusterShards)
	if err != nil {
		return "", err
	}
	return ref.Digest, nil
}

// setup computes the untimed reference, then starts the coordinator and
// worker and waits for the join (repeated; the median counts).
func (w *clusterExp) setup(e *env) (float64, error) {
	t0 := time.Now()
	ref, err := experimentReference(clusterScale, e.seed, clusterShards)
	if err != nil {
		return 0, err
	}
	w.ref = ref
	refS := time.Since(t0).Seconds()
	start, err := repeatSetup(func() error { return w.startPair(e) }, w.stopPair)
	return refS + start, err
}

// startPair starts a coordinator and one worker and waits for the join.
func (w *clusterExp) startPair(e *env) error {
	var err error
	if w.coord, err = startDaemon(daemonOpts{Coordinator: true}); err != nil {
		return err
	}
	if w.worker, err = startDaemon(daemonOpts{JoinURL: w.coord.URL}); err != nil {
		return err
	}
	w.cl = newClient(w.coord.URL, e.workers)
	w.used = false
	return w.cl.waitWorkers(1, 10*time.Second)
}

func (w *clusterExp) stopPair() {
	if w.cl != nil {
		w.cl.close()
	}
	if w.worker != nil {
		_ = w.worker.stop()
	}
	if w.coord != nil {
		_ = w.coord.stop()
	}
	w.cl, w.worker, w.coord = nil, nil, nil
}

func (w *clusterExp) run(e *env, d float64, tr *tracer) (*phase, error) {
	p := &phase{UnitName: "cold and warm pass of the experiment set"}
	var jobs []servedJob
	var cold []string
	sums := map[string]float64{}
	for p.Elapsed < d {
		if w.used {
			w.stopPair()
			if err := w.startPair(e); err != nil {
				return nil, err
			}
		}
		w.used = true
		cpu0 := cpuSeconds()
		start := time.Now()
		for pass, name := range []string{"cold", "warm"} {
			for _, id := range experimentIDs() {
				spec := jobSpec{Kind: kindExperiment, Exp: id, Scale: clusterScale, Seed: e.seed, Shards: clusterShards}
				rep, span := w.cl.submitTraced(tr, name+" "+id, spec)
				p.Ops++
				lat := float64(rep.Latency.Nanoseconds()) / 1e6
				switch {
				case rep.Err != nil:
					p.Checks.add(false, fmt.Sprintf("%s %s: %v", name, id, rep.Err))
					continue
				case rep.Result.Rendered != w.ref.Rendered[id]:
					p.Checks.add(false, fmt.Sprintf("%s %s differs from the reference: %s", name, id, firstLines(rep.Result.Rendered, 3)))
				default:
					p.Checks.add(true, "")
				}
				p.Delivered += w.ref.Delivered[id]
				if rep.View.CacheHit {
					p.HitMs = append(p.HitMs, lat)
				} else {
					p.MissMs = append(p.MissMs, lat)
				}
				if tr == nil {
					continue
				}
				tl, err := w.cl.timeline(rep.View.ID)
				if err != nil {
					return nil, fmt.Errorf("timeline of %s: %w", rep.View.ID, err)
				}
				jobs = append(jobs, servedJob{latencyMs: lat, bytes: rep.Bytes, hit: rep.View.CacheHit,
					source: rep.View.Source, span: span, tl: tl})
				if pass == 0 && !rep.View.CacheHit {
					cold = append(cold, id)
				}
			}
		}
		p.UnitSecs = append(p.UnitSecs, time.Since(start).Seconds())
		p.UnitCPU = append(p.UnitCPU, cpuSeconds()-cpu0)
		p.Elapsed += p.UnitSecs[len(p.UnitSecs)-1]
		p.CPUS += p.UnitCPU[len(p.UnitCPU)-1]
		p.Units++
		// Untimed: the cold pass must have run shards on the worker, or
		// the pair measured local execution instead of cluster dispatch.
		m, err := w.cl.metrics()
		if err != nil {
			return nil, err
		}
		remote := m["sdvd_cluster_shards_remote_total"]
		p.Checks.add(remote > 0, "the cold pass ran no shard on the worker (sdvd_cluster_shards_remote_total is 0)")
		if tr != nil {
			for _, c := range []*daemon{w.coord, w.worker} {
				mc := newClient(c.URL, 1)
				m, err := mc.metrics()
				mc.close()
				if err != nil {
					return nil, err
				}
				for k, v := range m {
					sums[k] += v
				}
			}
		}
	}
	p.RSSMB = peakRSSMB()
	p.Tracer = tr
	if tr != nil {
		w.jobs, w.coldJobs, w.metricsSum = jobs, cold, sums
	}
	return p, nil
}

func (w *clusterExp) verify(e *env) (checks, error) {
	return goldenCheck(e.root, "cluster-exp", e.seed, w.ref.Digest)
}

func (w *clusterExp) layers(e *env, p *phase) (metricSet, map[string]string, error) {
	vals, absent := serverLayers(w.jobs, p, e.workers)
	m := w.metricsSum
	results := 0
	for _, id := range w.coldJobs {
		results += w.ref.Requests[id]
	}
	addRunnerCounters(vals, float64(results), runnerCounters{
		Sims: int64(m["sdvd_sims_total"]), Recordings: int64(m["sdvd_trace_recordings_total"]),
		Replays: int64(m["sdvd_trace_replays_total"]),
	})
	loads, recs := m["sdvd_runner_trace_loads_total"], m["sdvd_trace_recordings_total"]
	vals["server.trace_store_hit_ratio"] = ratio(loads, loads+recs)

	var shard, rtt, overhead, pull []float64
	for _, j := range w.jobs {
		if j.tl == nil {
			continue
		}
		j.tl.Root.walk(nil, func(n, _ *timelineNode) {
			ms := float64(n.DurationUs) / 1e3
			switch n.Name {
			case "shard":
				shard = append(shard, ms)
			case "shard-remote":
				rtt = append(rtt, ms)
				for _, c := range n.Children {
					if c.Name == "shard-exec" {
						overhead = append(overhead, ms-float64(c.DurationUs)/1e3)
					}
				}
			case "artifact-pull":
				pull = append(pull, ms)
			}
		})
	}
	vals["experiments.shard_ms_p50"] = median(shard)
	vals["cluster.remote_share"] = ratio(m["sdvd_cluster_shards_remote_total"], m["sdvd_cluster_shards_dispatched_total"])
	vals["cluster.shard_rtt_ms_p50"] = median(rtt)
	vals["cluster.dispatch_overhead_ms_p50"] = median(overhead)
	vals["cluster.artifact_pulls"] = m["sdvd_cluster_artifact_pulls_total"]
	vals["cluster.artifact_pull_ms_p50"] = median(pull)
	vals["cluster.requeues"] = m["sdvd_cluster_requeues_total"]
	absent["server.disk_hit_share"] = "the cluster daemons keep results in memory only"
	return vals, absent, nil
}

func (w *clusterExp) ladderItems(e *env) ([]ladderItem, error) {
	return builtinLadder(clusterScale, e.seed), nil
}

func (w *clusterExp) close() { w.stopPair() }
