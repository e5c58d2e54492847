package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

// serve-mix: nproc clients in a closed loop, each posting one sim job
// (one workload on one configuration) with ?wait=1 and sending the next
// only after the reply. The daemon has a disk tier in a temporary
// directory and a memory result LRU smaller than the mix's distinct keys.

const (
	serveScale = 20_000
	// serveCacheEntries bounds the daemon's memory result LRU. It must
	// hold far fewer results than the mix issues distinct keys (well over
	// a thousand in a 20 s run), so that repeats of older keys reach the
	// disk tier. 32 is an assumed size with that property, not a measured
	// one.
	serveCacheEntries = 32
	// digestRequests is how many leading requests of the golden seed's
	// sequence the golden digest covers.
	digestRequests = 64
)

// The mix. The repository records no service traffic, so its shares come
// from the one request stream it does define, the experiment set
// (experiments.All(), as paper-eval runs it): of the expSetResults
// results the set requests, expSetSims are distinct and the rest repeat
// a result already computed. TestMixSharesMatchTheExperimentSet
// recomputes both counts.
//
// A request repeats an issued key with probability pRepeat. Otherwise it
// is a new key: since each recorded (benchmark, seed) pair is replayed
// across every configuration, every len(configs)-th new key starts a new
// pair and the others are new configurations of a recorded pair. New
// pairs take the shipped workloads (built-in, then generated from
// examples/workloads/*.yaml) in rotation, so each has an equal share
// whatever the seed. Repeats, recorded pairs and configurations are
// drawn uniformly: there is no traffic to fit a recency skew to.
//
// Every request is drawn from a seeded generator whose state depends
// only on the requests drawn before it, never on replies, so the same
// seed gives the same sequence however the clients interleave.
const (
	expSetResults = 1668
	expSetSims    = 348
	pRepeat       = 1 - float64(expSetSims)/expSetResults
)

// request is one sim job of the mix.
type request struct {
	Kind   string // repeat, new-config, new-pair, generated
	Bench  string
	Seed   int64
	Config string
	Specs  string // the spec document defining a generated Bench
}

func (r request) key() string { return fmt.Sprintf("%s/%d/%s", r.Bench, r.Seed, r.Config) }

func (r request) spec() jobSpec {
	return jobSpec{Kind: kindSim, Workload: r.Bench, Config: r.Config, Scale: serveScale, Seed: r.Seed, Specs: r.Specs}
}

// genWorkload is one workload defined by an example spec document.
type genWorkload struct{ Name, Doc string }

type pairState struct {
	bench, specs string
	seed         int64
	unused       []string // configurations not yet requested
}

type mixGen struct {
	rng       *rand.Rand
	builtins  []string
	generated []genWorkload
	cfgs      []string
	open      []*pairState // recorded pairs with unused configurations
	keys      []request    // distinct requests in first-issue order
	seen      map[string]bool
	nextSeed  int64
	drawn     int
	newKeys   int // new keys drawn after priming
	started   int // pairs started
}

func newMixGen(seed int64, builtins []string, generated []genWorkload, cfgs []string) *mixGen {
	return &mixGen{
		rng: rand.New(rand.NewSource(seed)), builtins: builtins, generated: generated, cfgs: cfgs,
		seen: map[string]bool{}, nextSeed: seed * 100_000,
	}
}

// primeRequests is the length of the priming set: one new pair of every
// shipped workload, in order, so that repeats and new configurations
// have something to hit from the first timed request.
func (g *mixGen) primeRequests() int { return len(g.builtins) + len(g.generated) }

func (g *mixGen) priming() bool { return g.drawn <= g.primeRequests() }

// next draws the next request.
func (g *mixGen) next() request {
	g.drawn++
	var r request
	switch {
	case g.priming():
		r = g.newPair()
	case g.rng.Float64() < pRepeat:
		r = g.repeat()
	default:
		g.newKeys++
		if g.newKeys%len(g.cfgs) == 0 || len(g.open) == 0 {
			r = g.newPair()
		} else {
			r = g.take(g.rng.Intn(len(g.open)), "new-config")
		}
	}
	if !g.seen[r.key()] {
		g.seen[r.key()] = true
		g.keys = append(g.keys, r)
	}
	return r
}

// newPair starts a pair of the next shipped workload in rotation: the
// built-ins, then the generated workloads.
func (g *mixGen) newPair() request {
	p := &pairState{seed: g.nextSeed, unused: append([]string(nil), g.cfgs...)}
	g.nextSeed++
	w := g.started % g.primeRequests()
	g.started++
	kind := "new-pair"
	if w < len(g.builtins) {
		p.bench = g.builtins[w]
	} else {
		gw := g.generated[w-len(g.builtins)]
		p.bench, p.specs, kind = gw.Name, gw.Doc, "generated"
	}
	g.open = append(g.open, p)
	return g.take(len(g.open)-1, kind)
}

// take requests an unused configuration of open pair i: a random one,
// or while priming the configurations in rotation, so that the priming
// set, whose cost setup_s measures, is the same work for every seed.
func (g *mixGen) take(i int, kind string) request {
	p := g.open[i]
	j := (g.drawn - 1) % len(p.unused)
	if !g.priming() {
		j = g.rng.Intn(len(p.unused))
	}
	cfg := p.unused[j]
	p.unused = append(p.unused[:j], p.unused[j+1:]...)
	if len(p.unused) == 0 {
		g.open = append(g.open[:i], g.open[i+1:]...)
	}
	return request{Kind: kind, Bench: p.bench, Seed: p.seed, Config: cfg, Specs: p.specs}
}

func (g *mixGen) repeat() request {
	r := g.keys[g.rng.Intn(len(g.keys))]
	r.Kind = "repeat"
	return r
}

// generatedWorkloads lists every workload the example spec files define,
// each with the document that defines it.
func generatedWorkloads(root string) ([]genWorkload, error) {
	docs, err := exampleSpecs(root)
	if err != nil {
		return nil, err
	}
	var out []genWorkload
	for _, doc := range docs {
		names, err := specWorkloads(doc)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			out = append(out, genWorkload{Name: n, Doc: string(doc)})
		}
	}
	return out, nil
}

func newMixGenFor(e *env) (*mixGen, error) {
	gens, err := generatedWorkloads(e.root)
	if err != nil {
		return nil, err
	}
	return newMixGen(e.seed, benchmarkNames(), gens, configNames()), nil
}

// response is one reply kept for the output check.
type response struct {
	req   request
	stats []byte // the result's stats JSON; nil when the job failed
}

type serveMix struct {
	gen       *mixGen
	d         *daemon
	cl        *client
	cacheDir  string
	mu        sync.Mutex
	responses []response
	// The last traced phase's per-job observations.
	jobs       []servedJob
	metricsPre map[string]float64
}

// servedJob is one reply of a traced phase with its server timeline.
type servedJob struct {
	latencyMs float64
	bytes     int
	hit       bool
	source    string
	span      int // the request's "http" span
	tl        *timeline
}

// setup starts the daemon on an empty cache directory and primes the
// repeat set: the priming requests of the sequence, on the same closed
// loop, untimed. Both are repeated; the median counts.
func (w *serveMix) setup(e *env) (float64, error) {
	return repeatSetup(func() error {
		gen, err := newMixGenFor(e)
		if err != nil {
			return err
		}
		w.gen = gen
		w.cacheDir, err = os.MkdirTemp(e.outDir, "sdvd-cache-")
		if err != nil {
			return err
		}
		w.d, err = startDaemon(daemonOpts{CacheDir: w.cacheDir, CacheEntries: serveCacheEntries})
		if err != nil {
			return err
		}
		w.cl = newClient(w.d.URL, e.workers)
		_, err = w.loop(e, w.gen.primeRequests(), 0, nil)
		return err
	}, w.close)
}

func (w *serveMix) run(e *env, d float64, tr *tracer) (*phase, error) {
	if tr != nil {
		m, err := w.cl.metrics()
		if err != nil {
			return nil, err
		}
		w.metricsPre = m
	}
	return w.loop(e, -1, d, tr)
}

// loop runs the closed loop until n requests were drawn (n >= 0) or d
// seconds passed, then waits for the replies in flight.
func (w *serveMix) loop(e *env, n int, d float64, tr *tracer) (*phase, error) {
	p := &phase{UnitName: "1000 jobs"}
	var jobs []servedJob
	deadline := time.Now().Add(secs(d))
	drawn := 0
	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				w.mu.Lock()
				if (n >= 0 && drawn >= n) || (n < 0 && !time.Now().Before(deadline)) {
					w.mu.Unlock()
					return
				}
				drawn++
				req := w.gen.next()
				w.mu.Unlock()

				rep, span := w.cl.submitTraced(tr, req.Kind+" "+req.key(), req.spec())
				var tl *timeline
				if tr != nil && rep.View.ID != "" {
					var err error
					if tl, err = w.cl.timeline(rep.View.ID); err != nil {
						rep.Err = fmt.Errorf("timeline: %w", err)
					}
				}

				w.mu.Lock()
				p.Ops++
				lat := float64(rep.Latency.Nanoseconds()) / 1e6
				if rep.Err != nil {
					p.Checks.add(false, fmt.Sprintf("%s %s: %v", req.Kind, req.key(), rep.Err))
					w.responses = append(w.responses, response{req: req})
				} else {
					if rep.View.CacheHit {
						p.HitMs = append(p.HitMs, lat)
					} else {
						p.MissMs = append(p.MissMs, lat)
					}
					w.responses = append(w.responses, response{req: req, stats: rep.Result.Stats})
				}
				if tr != nil {
					jobs = append(jobs, servedJob{latencyMs: lat, bytes: rep.Bytes, hit: rep.View.CacheHit,
						source: rep.View.Source, span: span, tl: tl})
				}
				w.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.Elapsed = time.Since(start).Seconds()
	p.CPUS = cpuSeconds() - cpu0
	p.RSSMB = peakRSSMB()
	p.Units = float64(p.Ops) / 1000
	p.Tracer = tr
	// Delivered instructions: every reply's committed count, cached or
	// computed, read after the clock stopped.
	for _, r := range w.responses[len(w.responses)-p.Ops:] {
		if r.stats != nil {
			p.Delivered += float64(committedOfStats(r.stats))
		}
	}
	if tr != nil {
		w.jobs = jobs
	}
	return p, nil
}

func committedOfStats(b []byte) uint64 {
	var s struct{ Committed uint64 }
	if json.Unmarshal(b, &s) != nil {
		return 0
	}
	return s.Committed
}

// reference computes the untimed reference of every request in reqs:
// one fresh sequential Runner per (benchmark, seed) pair, nproc pairs at
// a time. It returns request key -> simResult.
func serveReference(reqs []request, workers int) (map[string]simResult, error) {
	groups := map[string][]request{}
	var order []string
	for _, r := range reqs {
		g := fmt.Sprintf("%s/%d", r.Bench, r.Seed)
		if _, ok := groups[g]; !ok {
			order = append(order, g)
		}
		groups[g] = append(groups[g], r)
	}
	out := map[string]simResult{}
	var mu sync.Mutex
	var firstErr error
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next >= len(order) || firstErr != nil {
					mu.Unlock()
					return
				}
				group := groups[order[next]]
				next++
				mu.Unlock()
				res, err := referenceGroup(group)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				for k, v := range res {
					out[k] = v
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}

func referenceGroup(group []request) (map[string]simResult, error) {
	first := group[0]
	r, err := newRunner(runnerOpts{Scale: serveScale, Seed: first.Seed, Workers: 1, Specs: []byte(first.Specs)})
	if err != nil {
		return nil, err
	}
	out := map[string]simResult{}
	for _, q := range group {
		if _, done := out[q.key()]; done {
			continue
		}
		res, err := r.sim(q.Config, q.Bench)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.key(), err)
		}
		out[q.key()] = res
	}
	return out, nil
}

// mixDigest hashes (benchmark, seed, configuration, Committed, Cycles)
// of the given requests, in order.
func mixDigest(reqs []request, ref map[string]simResult) string {
	h := sha256.New()
	for _, r := range reqs {
		res := ref[r.key()]
		fmt.Fprintf(h, "%s %d %s %d %d\n", r.Bench, r.Seed, r.Config, res.Committed, res.Cycles)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// leadingKeys returns the distinct requests among the first n of a fresh
// generator's sequence for e's seed.
func leadingKeys(e *env, n int) ([]request, error) {
	g, err := newMixGenFor(e)
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		g.next()
	}
	return g.keys, nil
}

func (w *serveMix) digest(e *env) (string, error) {
	lead, err := leadingKeys(e, digestRequests)
	if err != nil {
		return "", err
	}
	ref, err := serveReference(lead, e.workers)
	if err != nil {
		return "", err
	}
	return mixDigest(lead, ref), nil
}

func (w *serveMix) verify(e *env) (checks, error) {
	var c checks
	lead, err := leadingKeys(e, digestRequests)
	if err != nil {
		return c, err
	}
	reqs := append([]request(nil), lead...)
	for _, r := range w.responses {
		reqs = append(reqs, r.req)
	}
	ref, err := serveReference(reqs, e.workers)
	if err != nil {
		return c, err
	}
	for _, r := range w.responses {
		if r.stats == nil {
			continue // already counted as a failed operation
		}
		c.add(bytes.Equal(r.stats, ref[r.req.key()].JSON),
			fmt.Sprintf("%s %s: served stats differ from the reference", r.req.Kind, r.req.key()))
	}
	g, err := goldenCheck(e.root, "serve-mix", e.seed, mixDigest(lead, ref))
	c.merge(g)
	return c, err
}

func (w *serveMix) layers(e *env, p *phase) (metricSet, map[string]string, error) {
	post, err := w.cl.metrics()
	if err != nil {
		return nil, nil, err
	}
	delta := func(name string) float64 { return post[name] - w.metricsPre[name] }
	vals, absent := serverLayers(w.jobs, p, e.workers)
	addRunnerCounters(vals, float64(len(w.jobs)), runnerCounters{
		Sims: int64(delta("sdvd_sims_total")), Recordings: int64(delta("sdvd_trace_recordings_total")),
		Replays: int64(delta("sdvd_trace_replays_total")),
	})
	loads, recs := delta("sdvd_runner_trace_loads_total"), delta("sdvd_trace_recordings_total")
	vals["server.trace_store_hit_ratio"] = ratio(loads, loads+recs)
	vals["experiments.shard_ms_p50"] = 0
	absent["experiments.shard_ms_p50"] = "sim jobs run in exact mode (Shards 1): no shards"
	addAbsent(vals, absent, "cluster.", "serve-mix runs one daemon without a cluster")
	return vals, absent, nil
}

// serverLayers derives the server- and run-level metrics of a traced
// phase from the replies and their timelines.
func serverLayers(jobs []servedJob, p *phase, workers int) (metricSet, map[string]string) {
	var queue, lookup, compute, httpMs, kb []float64
	hits, disk := 0, 0
	log := newRunLog()
	tr := p.Tracer
	for _, j := range jobs {
		kb = append(kb, float64(j.bytes)/1024)
		if j.hit {
			hits++
			if j.source == "disk" {
				disk++
			}
		}
		if j.tl == nil || j.tl.Root == nil {
			continue
		}
		root := j.tl.Root
		httpMs = append(httpMs, j.latencyMs-float64(root.DurationUs)/1e3)
		for _, c := range root.Children {
			ms := float64(c.DurationUs) / 1e3
			switch c.Name {
			case "queue-wait":
				queue = append(queue, ms)
			case "cache-lookup":
				lookup = append(lookup, ms)
			case "compute":
				compute = append(compute, ms)
			}
		}
		// Graft the server's span tree under the request's span. The
		// server's clock is not ours: its root is aligned to end when the
		// reply arrived.
		base := tr.spanEnd(j.span) - float64(root.DurationUs)/1e6
		log.window(base, base+float64(root.DurationUs)/1e6)
		type grafted struct {
			id    int
			layer string
		}
		done := map[*timelineNode]grafted{}
		root.walk(nil, func(n, parent *timelineNode) {
			s := base + float64(n.StartUs)/1e6
			end := s + float64(n.DurationUs)/1e6
			name := n.Name
			if n.Name == "run" {
				name = n.Cfg + "/" + n.Bench
				log.mu.Lock()
				log.runs = append(log.runs, [2]float64{s, end})
				log.mu.Unlock()
			}
			up := grafted{id: j.span, layer: "server"}
			if parent != nil {
				up = done[parent]
			}
			layer := timelineLayer(n.Name, up.layer)
			id := tr.add(up.id, layer, name, j.tl.ID, tr.base.Add(secs(s)), tr.base.Add(secs(end)))
			done[n] = grafted{id, layer}
		})
	}
	vals := log.metrics(workers, p.Elapsed)
	vals["server.queue_wait_ms_p50"] = median(queue)
	vals["server.cache_lookup_ms_p50"] = median(lookup)
	vals["server.compute_ms_p50"] = median(compute)
	vals["server.http_ms_p50"] = median(httpMs)
	vals["server.result_hit_ratio"] = ratio(float64(hits), float64(len(jobs)))
	vals["server.disk_hit_share"] = ratio(float64(disk), float64(hits))
	vals["server.response_kb_p50"] = median(kb)
	return vals, map[string]string{}
}

// timelineLayer assigns a server timeline span to a span layer: the
// cluster's dispatch spans to "cluster", a Runner simulation and
// everything inside it to "run", the job's own phases to "server".
func timelineLayer(name, parentLayer string) string {
	switch {
	case name == "shard-remote" || name == "shard-exec" || name == "artifact-pull":
		return "cluster"
	case name == "run" || name == "gang-replay" || name == "record" || parentLayer == "run":
		return "run"
	}
	return parentLayer
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (w *serveMix) ladderItems(e *env) ([]ladderItem, error) {
	// The first distinct pairs of the sequence, generated ones included.
	lead, err := leadingKeys(e, digestRequests)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var items []ladderItem
	for _, r := range lead {
		pair := fmt.Sprintf("%s/%d", r.Bench, r.Seed)
		if seen[pair] || len(items) >= 12 {
			continue
		}
		seen[pair] = true
		items = append(items, ladderItem{Bench: r.Bench, Specs: []byte(r.Specs), Scale: serveScale, Seed: r.Seed, Config: r.Config})
	}
	return items, nil
}

func (w *serveMix) close() {
	if w.cl != nil {
		w.cl.close()
	}
	if w.d != nil {
		_ = w.d.stop()
	}
	if w.cacheDir != "" {
		_ = os.RemoveAll(w.cacheDir)
	}
	w.cl, w.d, w.cacheDir = nil, nil, ""
}
