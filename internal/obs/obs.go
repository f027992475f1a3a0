// Package obs is the live observability plane over the metrics registry
// (internal/metrics) and the sweep runner (internal/runner): an HTTP server
// exposing Prometheus-format metrics, sweep progress, the event-trace tail
// and net/http/pprof while a simulation or sweep is in flight, plus offline
// exporters — Perfetto/Chrome trace-event timelines from the typed event
// ring, and ASCII/JSON renderings of the WD spatial heatmap.
//
// Everything here is pull-based and zero-cost when unused: producers hand
// the server immutable snapshots (sim.Config.OnSnapshot, or a sweep
// observer), and HTTP handlers render whatever snapshot is current. Nothing
// in this package touches the simulator's hot path.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"sdpcm/internal/metrics"
)

// ReadHeaderTimeout bounds how long a client may take to send its request
// headers, so idle half-open connections cannot pin server goroutines. Every
// server started through Serve sets it.
const ReadHeaderTimeout = 10 * time.Second

// Serve binds addr (":0" picks a free port) and serves h in a background
// goroutine with ReadHeaderTimeout set, returning the server and the bound
// address. Stop it with Shutdown.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout}
	go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return srv, ln.Addr().String(), nil
}

// Shutdown stops a server started by Serve; nil is a no-op. It drains: the
// listener closes immediately (no new connections), but requests already in
// flight — a Prometheus scrape mid-render, say — get up to timeout (0 picks
// 5s) to complete before the hard stop drops whatever is left.
func Shutdown(srv *http.Server, timeout time.Duration) error {
	if srv == nil {
		return nil
	}
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Timed out (or the context machinery failed): fall back to the
		// hard stop so Shutdown never hangs on a stuck connection.
		return srv.Close()
	}
	return nil
}

// MountPprof registers the net/http/pprof endpoints under /debug/pprof/.
// The patterns carry methods so they coexist with a method-scoped catch-all
// such as "GET /".
func MountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("POST /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Server serves the live observability endpoints:
//
//	/metrics       Prometheus text exposition of the current snapshot
//	/progress      sweep progress JSON (points done/cached/errored, rate, ETA)
//	/events        most recent event-ring records as JSON (?n= limits)
//	/debug/pprof/  the standard Go profiling endpoints
//
// Producers publish with SetSnapshot (which sim.Config.OnSnapshot can point
// at directly) or by feeding the server's Sweep fold; handlers read under a
// lock, so publication and serving never race. The zero value is not usable;
// construct with NewServer.
type Server struct {
	// ShutdownTimeout bounds how long Close waits for in-flight requests
	// before falling back to a hard stop (0 picks a 5s default). Set it
	// before Start.
	ShutdownTimeout time.Duration

	mu    sync.RWMutex
	snap  *metrics.Snapshot
	sweep *Sweep
	srv   *http.Server

	// metricsGate, when non-nil, runs at the top of the /metrics handler —
	// a test hook for holding a request in flight across a Close call.
	metricsGate func()
}

// NewServer builds a server with no snapshot and an empty Sweep fold.
func NewServer() *Server {
	return &Server{sweep: &Sweep{}}
}

// SetSnapshot publishes a snapshot; the snapshot must not be mutated after
// the call. The signature matches sim.Config.OnSnapshot, so a simulation
// publishes mid-run state with `cfg.OnSnapshot = srv.SetSnapshot`.
func (s *Server) SetSnapshot(sn *metrics.Snapshot) {
	s.mu.Lock()
	s.snap = sn
	s.mu.Unlock()
}

// Snapshot returns what /metrics and /events render: the most recently
// published snapshot, else the Sweep fold's live aggregate with its event
// ring (nil before either has data).
func (s *Server) Snapshot() *metrics.Snapshot {
	s.mu.RLock()
	sn := s.snap
	s.mu.RUnlock()
	if sn != nil {
		return sn
	}
	return s.sweep.Live()
}

// Sweep returns the server's sweep fold, for wiring into a runner observer
// chain; it feeds /progress, and /metrics and /events until a snapshot is
// published.
func (s *Server) Sweep() *Sweep { return s.sweep }

// Handler returns the observability mux (usable under httptest or a custom
// server).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/events", s.handleEvents)
	MountPprof(mux)
	return mux
}

// Start binds addr (":0" picks a free port) and serves in a background
// goroutine, returning the bound address. Close shuts the listener down.
func (s *Server) Start(addr string) (string, error) {
	srv, bound, err := Serve(addr, s.Handler())
	s.srv = srv
	return bound, err
}

// Close stops a started server gracefully, draining in-flight requests for
// up to ShutdownTimeout (see Shutdown); a no-op otherwise.
func (s *Server) Close() error { return Shutdown(s.srv, s.ShutdownTimeout) }

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, "sdpcm observability\n\n/metrics\n/progress\n/events\n/debug/pprof/\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	if s.metricsGate != nil {
		s.metricsGate()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePrometheus(w, s.Snapshot()); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.sweep.Progress()) //nolint:errcheck // best effort over HTTP
}

// EventsPayload is the /events JSON shape. Dropped counts events the
// bounded ring overwrote before export (data lost at the producer);
// Truncated counts events the client itself trimmed with ?n= (data still
// in the snapshot, just not in this response). Conflating the two would
// make a tight tail request look like ring overflow.
type EventsPayload struct {
	Events    []metrics.Event `json:"events"`
	Dropped   uint64          `json:"dropped"`
	Truncated uint64          `json:"truncated"`
}

// EventsTail builds the /events payload from a snapshot: the newest n
// events (n < 0 keeps them all), the ring's overflow count, and how many
// the limit trimmed. Shared by the one-process plane and the sweep
// service's per-job events view.
func EventsTail(sn *metrics.Snapshot, n int) EventsPayload {
	payload := EventsPayload{}
	if sn != nil {
		payload.Events = sn.Events
		payload.Dropped = sn.EventsDropped
	}
	if n >= 0 && n < len(payload.Events) {
		payload.Truncated = uint64(len(payload.Events) - n)
		payload.Events = payload.Events[len(payload.Events)-n:]
	}
	if payload.Events == nil {
		payload.Events = []metrics.Event{}
	}
	return payload
}

// EventsLimit reads an events request's ?n= tail limit: -1 (keep every
// event) when absent, an error when not a non-negative integer.
func EventsLimit(r *http.Request) (int, error) {
	nStr := r.URL.Query().Get("n")
	if nStr == "" {
		return -1, nil
	}
	n, err := strconv.Atoi(nStr)
	if err != nil || n < 0 {
		return 0, errors.New("bad n")
	}
	return n, nil
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n, err := EventsLimit(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(EventsTail(s.Snapshot(), n)) //nolint:errcheck // best effort over HTTP
}
