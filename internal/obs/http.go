package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
)

// Server is a metrics endpoint over one snapshot source and (optionally)
// one tracer. It exists on the wallclock backend only — under sim there is
// no wire, callers snapshot the registry directly.
type Server struct {
	addr string
	srv  *http.Server
}

// ServeMetrics starts an HTTP server on addr exposing, every page rendered
// from one call of snap:
//
//	/metrics          Prometheus text exposition of every series
//	/metrics.json     the deterministic JSON summary
//	/metrics.raw.json the raw mergeable snapshot (what fleet aggregation
//	                  scrapes; histograms as bucket dumps, not summaries)
//	/attribution      the per-stage latency-attribution table (JSON array)
//	/traces           the tracer's sampled whole traces plus the table
//	/debug/pprof      the standard Go profiling endpoints (heap, cpu,
//	                  allocs…), registered explicitly so the hot path's
//	                  allocation budget can be audited against a live server
//
// A process passes its registry's Raw; the cluster manager passes its
// Fleet's Raw, so the same routes serve the cluster-wide view. A blank addr
// serves nothing and returns a nil Server, whose methods are no-ops. The
// server runs on its own goroutines; instruments are atomic or
// mutex-guarded precisely so snap can read them mid-run.
func ServeMetrics(addr string, snap func() RawSnapshot, tr *Tracer) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		snap().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = snap().Summary().WriteJSON(w)
	})
	mux.HandleFunc("/metrics.raw.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(snap())
	})
	mux.HandleFunc("/attribution", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, snap().Attribution())
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, _ *http.Request) {
		samples := tr.Samples()
		if samples == nil {
			samples = []Trace{}
		}
		writeJSON(w, struct {
			Traces      []Trace     `json:"traces"`
			Attribution Attribution `json:"attribution"`
		}{samples, snap().Attribution()})
	})
	// Explicit registration: importing net/http/pprof only touches
	// http.DefaultServeMux, which this server deliberately does not use.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s := &Server{addr: ln.Addr().String(), srv: &http.Server{Handler: mux}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the actual listen address (useful when the caller passed
// :0), or "" on a nil Server.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}

// Close shuts the listener down.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
