package server

import (
	"net"
	"net/http"
	"net/http/pprof"
)

// PprofHandler serves the standard net/http/pprof endpoints under
// /debug/pprof/. Profiling is opt-in — the daemon binds it on its own
// listener (-pprof addr) rather than exposing it on the API port, so a
// production API surface never carries the profiler by accident.
func PprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServePprof serves PprofHandler on ln until ln is closed. Like the API
// server it closes a connection that has not sent its request headers
// within readHeaderTimeout, so a stalled client cannot pin a goroutine
// and a descriptor; profile and trace downloads, which stream for their
// requested duration, are not bounded.
func ServePprof(ln net.Listener) error {
	hs := &http.Server{Handler: PprofHandler(), ReadHeaderTimeout: readHeaderTimeout}
	return hs.Serve(ln)
}
