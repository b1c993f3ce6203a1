package main

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/entropyd"
	"repro/internal/loadstat"
	"repro/internal/obs"
	"repro/internal/obs/incident"
)

// serverConfig carries the HTTP-layer knobs into newServer. The zero
// value of the optional fields (journal, sink, pprof) disables them.
type serverConfig struct {
	queue     int
	maxBytes  int
	wait      time.Duration
	admin     bool
	pprof     bool             // mount /debug/pprof on the serving mux
	journal   *obs.Journal     // /events source; nil disables
	sink      obs.Sink         // daemon-event emission (shed, starvation abort)
	incidents *incident.Engine // /incidents + detection-latency source; nil disables
}

// server wraps the pool with HTTP concerns: the bounded in-flight
// queue, request accounting and the endpoint handlers. drbg is non-nil
// in DRBG mode and selects the expansion-layer serving path.
type server struct {
	pool  *entropyd.Pool
	drbg  *entropyd.DRBGPool
	sem   chan struct{} // bounded request queue
	cfg   serverConfig
	start time.Time
	lat   *loadstat.Histogram // /random service latency
	// Request-phase histograms: the service latency split into where
	// the time went — waiting for a queue slot, generating bytes, and
	// writing the response to the client.
	latQueue *loadstat.Histogram
	latGen   *loadstat.Histogram
	latWrite *loadstat.Histogram
	// Build identity, resolved once (debug.ReadBuildInfo walks the
	// whole module graph).
	goVersion string
	revision  string

	requests atomic.Uint64
	rejected atomic.Uint64 // queue-full rejections
	starved  atomic.Uint64 // deadline starvations
	served   atomic.Uint64 // bytes delivered
	dropped  atomic.Uint64 // journal events lost to overwrite, as observed by /events readers
}

// newServer assembles the handler set (split out for httptest); dp is
// nil in raw mode.
func newServer(pool *entropyd.Pool, dp *entropyd.DRBGPool, cfg serverConfig) *server {
	s := &server{
		pool:     pool,
		drbg:     dp,
		sem:      make(chan struct{}, cfg.queue),
		cfg:      cfg,
		start:    time.Now(),
		lat:      loadstat.New(),
		latQueue: loadstat.New(),
		latGen:   loadstat.New(),
		latWrite: loadstat.New(),
	}
	s.goVersion, s.revision = buildIdentity()
	return s
}

// buildIdentity reads the binary's go version and VCS revision for the
// trngd_build_info gauge.
func buildIdentity() (goVersion, revision string) {
	goVersion, revision = runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.GoVersion != "" {
			goVersion = bi.GoVersion
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	return goVersion, revision
}

// emit forwards a daemon event to the configured sink (nil-safe).
func (s *server) emit(e obs.Event) {
	if s.cfg.sink != nil {
		s.cfg.sink.Emit(e)
	}
}

// mode names the serving mode.
func (s *server) mode() string {
	if s.drbg != nil {
		return "drbg"
	}
	return "raw"
}

// handler builds the route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/random", s.handleRandom)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/assess", s.handleAssess)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/incidents", s.handleIncidents)
	if s.cfg.admin {
		mux.HandleFunc("/quarantine", s.handleQuarantine)
	}
	if s.cfg.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}
