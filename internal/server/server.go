package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"specvec/internal/obs"
)

// Options configure a daemon instance. Zero values mean the documented
// defaults.
type Options struct {
	// CacheDir enables disk persistence of results and trace artifacts
	// under this directory ("" = memory only).
	CacheDir string
	// CacheEntries / CacheBytes bound the in-memory result LRU
	// (defaults 512 entries / 256 MiB).
	CacheEntries int
	CacheBytes   int64
	// TraceEntries bounds the in-memory trace artifact LRU (default 16 —
	// recordings are the big artifacts).
	TraceEntries int
	// QueueDepth bounds the job queue; submissions beyond it are rejected
	// with 503 (default 64).
	QueueDepth int
	// Jobs is the number of jobs executing concurrently (default 2).
	Jobs int
	// JobHistory bounds how many terminal jobs the registry retains
	// (default 512). Older ones are evicted — their ids answer 404, but
	// their results stay reachable through the cache by resubmitting.
	JobHistory int
	// SimWorkers bounds concurrent simulations per job (default
	// GOMAXPROCS).
	SimWorkers int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	// Coordinator enables cluster mode on this daemon: workers may join
	// via POST /v1/cluster/join and the scheduler places replay work
	// across them (local cores keep competing as one more node).
	// Execution shape only — replay determinism keeps results
	// byte-identical with and without a cluster.
	Coordinator bool
	// Worker enables the worker role: the daemon registers with the
	// coordinator at JoinURL, heartbeats, and serves POST /v1/shards.
	Worker bool
	// JoinURL is the coordinator base URL a worker registers with
	// (required when Worker is set).
	JoinURL string
	// AdvertiseURL overrides the URL a worker advertises to the
	// coordinator (default: derived from the bound listener address).
	AdvertiseURL string
	// HeartbeatEvery is the worker re-registration period (default 1s).
	HeartbeatEvery time.Duration
	// WorkerExpiry is how stale a worker's heartbeat may be before the
	// coordinator stops placing work on it (default 5s).
	WorkerExpiry time.Duration
}

// Server is the sdvd daemon: the scheduler, the result cache and the
// HTTP API in front of them.
type Server struct {
	opts    Options
	cache   *Cache
	traces  *traceCache
	sched   *scheduler
	cluster *Cluster     // non-nil on a coordinator
	agent   *workerAgent // non-nil on a worker
	mux     http.Handler
	clock   obs.Clock
	started time.Time
	reg     *obs.Registry  // everything /metrics renders
	runtime *runtimeGauges // sdvd_go_* (sampled, not scrape-time)
}

// New assembles a Server from opts.
func New(opts Options) *Server {
	clock := obs.RealClock()
	s := &Server{
		opts:    opts,
		cache:   NewCache(opts.CacheEntries, opts.CacheBytes, opts.CacheDir),
		traces:  newTraceCache(opts.TraceEntries, opts.CacheDir),
		clock:   clock,
		started: clock.Now(),
		runtime: newRuntimeGauges(),
	}
	s.sched = newScheduler(opts.Jobs, opts.QueueDepth, opts.SimWorkers, opts.JobHistory, s.cache, s.traces, opts.Logf)
	if opts.Coordinator {
		s.cluster = newCluster(opts.SimWorkers, 0, opts.WorkerExpiry, opts.Logf)
		s.cluster.rtt = s.sched.metrics.shardRTT
		s.sched.remote = s.cluster
	}
	if opts.Worker {
		s.agent = newWorkerAgent(opts.JoinURL, opts.SimWorkers, opts.HeartbeatEvery, opts.Logf)
	}
	s.runtime.sample() // a scrape before the sampler's first tick still sees real values
	s.reg = s.buildRegistry()
	s.mux = s.handler()
	return s
}

// Cluster exposes the coordinator placement layer (nil unless
// Options.Coordinator), for embedding and tests.
func (s *Server) Cluster() *Cluster { return s.cluster }

// StartWorker begins the worker role out-of-band of Serve: register
// with the coordinator as selfURL and heartbeat until ctx is cancelled.
// Serve calls it automatically on a Worker daemon; tests and embedders
// that serve the handler themselves (httptest) call it directly.
func (s *Server) StartWorker(ctx context.Context, selfURL string) {
	if s.agent == nil {
		return
	}
	go s.agent.run(ctx, selfURL)
}

// Handler returns the daemon's HTTP handler (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the worker pool; in-flight jobs abort.
func (s *Server) Close() { s.sched.Close() }

// ListenAndServe serves the API on addr until ctx is cancelled, then
// shuts down gracefully (draining handlers for up to 5 seconds) and
// closes the scheduler. The listener is bound before returning control
// to the serve loop, so callers that need the bound address should use
// Serve with their own listener.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// advertiseURL is the URL a worker registers under: the explicit
// override, or one derived from the bound listener (an unspecified
// host — 0.0.0.0, [::] — becomes 127.0.0.1, the single-machine
// default; multi-host deployments set AdvertiseURL).
func (s *Server) advertiseURL(addr net.Addr) string {
	if s.opts.AdvertiseURL != "" {
		return s.opts.AdvertiseURL
	}
	host, port, err := net.SplitHostPort(addr.String())
	if err != nil {
		return "http://" + addr.String()
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers. Every client of the API (sdvexp -server, cluster
// workers, curl) sends them at once; a connection that trickles or
// stalls them is closed instead of pinning a goroutine and a descriptor
// indefinitely. Bodies and streamed responses are not bounded by it.
const readHeaderTimeout = 5 * time.Second

// Serve runs the API on ln with the lifecycle described at
// ListenAndServe.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	if s.opts.Logf != nil {
		s.opts.Logf("sdvd serving on http://%s", ln.Addr())
	}
	if s.agent != nil {
		workerCtx, stopWorker := context.WithCancel(ctx)
		defer stopWorker()
		s.StartWorker(workerCtx, s.advertiseURL(ln.Addr()))
	}
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := hs.Shutdown(shutdownCtx)
	s.Close()
	if err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return nil
}
