// Command trngd serves entropy over HTTP from a sharded, health-gated
// P-TRNG pool (internal/entropyd): the repository's production-shaped
// daemon. Every shard is an independent simulated generator gated by
// the AIS31 embedded tests AND the paper's §V thermal-noise monitor;
// shards that alarm are quarantined and recalibrated while the rest
// keep serving.
//
// Endpoints:
//
//	GET /random?bytes=N   N random bytes (application/octet-stream).
//	                      503 when the request queue is full or the pool
//	                      cannot produce N bytes before -wait expires.
//	                      With ?pr=1 (DRBG mode only) the serving DRBG
//	                      lanes reseed from freshly conditioned raw
//	                      entropy immediately before each output block —
//	                      SP 800-90A prediction resistance, at physics
//	                      cost.
//	GET /healthz          JSON per-shard state, including each shard's
//	                      latest assessed min-entropy, the assessment's
//	                      age and epoch (the reseed-gating inputs), and
//	                      the DRBG lane states in DRBG mode; 503 when no
//	                      shard is healthy.
//	GET /assess           JSON per-shard SP 800-90B assessment reports: the
//	                      latest black-box min-entropy estimator table of each
//	                      shard's raw bits (?shard=I for one shard; 404 until
//	                      a shard's first assessment completes). ?live=1
//	                      serves the live sliding-window report from the
//	                      streaming tracker instead of the latest batch run.
//	GET /metrics          Prometheus-style text metrics.
//	GET /events           JSON event journal (the flight recorder): the
//	                      most recent -events typed events — shard
//	                      lifecycle, alarms with the triggering
//	                      statistic, quarantines, DRBG lane events, seed
//	                      draws, request sheds. ?since=SEQ pages forward
//	                      (cursor contract below); ?shard=I, ?lane=I and
//	                      ?type=T filter; ?limit=N caps the page.
//	GET /incidents        JSON fleet incidents from the correlation engine
//	                      (internal/obs/incident): journal alarms folded
//	                      into incident objects with classification
//	                      (single-shard vs correlated), blast radius,
//	                      per-shard timelines and MTTD/MTTR. ?since=ID
//	                      pages the resolved history; open incidents are
//	                      always returned. 404 with -incident-window 0 or
//	                      -events 0.
//	POST /quarantine?shard=I   (with -admin) force-quarantine a shard — an
//	                      operator drill for the self-healing path. The
//	                      incident engine pairs the injected marker event
//	                      with the resulting quarantine into a measured
//	                      detection latency
//	                      (trngd_shard_detection_latency_seconds).
//
// # Observability
//
// The daemon carries a fixed-capacity ring-buffer event journal
// (internal/obs) fed by every layer: the health state machine, the
// DRBG lanes, the seed source and the request path. Emission is
// passive — the served byte stream is bit-identical with the journal
// on or off — and the hot path pays one atomic append per event.
//
// The /events cursor contract for scrapers: every event carries a
// monotonic sequence number (seq); each response carries last_seq.
// Start with ?since=0 (or GET once and remember last_seq), then poll
// ?since=<last_seq> — each page returns only events with seq > since,
// oldest first, and a new last_seq even when no event matched. The
// journal keeps the most recent -events entries: each page reports the
// cursor gap — the events the ring overwrote before you polled — as an
// explicit "dropped" count, accumulated into
// trngd_journal_dropped_total (scrape faster or raise -events when it
// moves).
//
// Incident correlation: the same emission stream feeds a streaming
// correlation engine (internal/obs/incident) that folds alarms across
// shards into fleet-level incidents — alarms on distinct shards within
// -incident-window of each other are ONE correlated incident with a
// blast radius, per-shard timelines and derived MTTD/MTTR. /incidents
// serves the open and recent incidents (?since=ID cursor), /healthz
// carries an open-incident summary, and /metrics exports
// trngd_incidents_total{class}, trngd_incidents_open,
// trngd_incident_blast_radius and
// trngd_incident_mtt{d,r}_seconds{class}.
//
// Detection latency is derived by the same engine: an injection-marker
// event (the /quarantine drill, or internal/attack drills via
// attack.Mark) starts a clock per shard; the shard's first quarantine
// in the incident stops it, and the elapsed time is recorded per alarm
// class in trngd_shard_detection_latency_seconds. The family is absent
// with -incident-window 0.
//
// Request-phase tracing splits trngd_request_duration_seconds into
// queue-wait / lane-generate / response-write phase histograms
// (trngd_request_phase_duration_seconds{phase=...}).
//
// Logs are structured JSON on stderr (log/slog) using the journal's
// event vocabulary; -log-level debug surfaces the high-rate events
// (seed draws, reseeds). -pprof mounts the /debug/pprof profiling
// endpoints on the serving mux.
//
// Backpressure: at most -queue requests are in flight; excess requests
// are rejected immediately with 503 rather than piling onto the pool.
//
// # Serving modes: raw vs drbg
//
// -mode drbg (the default) serves the SP 800-90C construction: raw
// oscillator bits never leave the daemon. Instead each shard's
// assessed raw stream is tapped into a vetted conditioning function
// (SP 800-90B §3.1.5.1.2, -cond hmac|cbcmac) that distills
// full-entropy seed material — entropy accounted from the shard's own
// latest SP 800-90B assessment — and one SP 800-90A DRBG lane per
// shard (-drbg ctr|hmac) expands it at AES/SHA throughput. Output rate
// is bounded by crypto, not physics (MB/s–GB/s instead of a few
// hundred B/s per shard at calibrated physics); the physics budget
// goes to continuous health surveillance and reseeds. Lanes reseed
// every -reseed-interval output blocks and fail CLOSED: when a reseed
// cannot obtain seed material from any healthy, current-epoch-assessed
// shard within -seed-wait, the lane stops (503 once no lane is live)
// rather than stretch a stale seed. /random is unavailable (503) until
// the first per-shard assessment completes (~tens of seconds at
// calibrated defaults): seed accounting needs an assessment.
//
// -mode raw serves the gated raw stream exactly as before (PR 2–4
// behaviour); ?pr=1 is rejected. The modes are exclusive by design:
// the seed tap mirrors the raw stream, so serving both from one pool
// would correlate DRBG seeds with published output.
//
// # Online assessment
//
// Every shard periodically runs the SP 800-90B non-IID estimator suite
// (internal/sp90b) on an -assess-bits sample of its raw bits, every
// -assess-every raw bits. The latest per-shard report is served on
// /assess and exported as Prometheus gauges; a suite minimum below
// -assess-min quarantines the shard like a tot or thermal alarm
// (-assess-min 0 monitors without alarming, -assess=false switches the
// assessment off). The default threshold 0.3 sits far below the
// ≈ 0.75–1 bit a healthy calibrated shard assesses at (the compression
// estimator's designed conservatism is the floor) and far above a
// degraded source.
//
// # Streaming surveillance
//
// On top of the periodic batch runs, every shard feeds its raw bits
// inline into a sliding-window streaming tracker
// (internal/sp90b/stream): incremental MCV, Markov and all four
// predictor estimators over the last -stream-window bits, re-scored
// continuously instead of once per -assess-every cadence. The live
// suite minimum is exported per estimator as
// trngd_shard_live_min_entropy{shard,estimator} (estimator="suite" is
// the per-shard minimum), served on /assess?live=1, and gated: a live
// minimum below -stream-min quarantines the shard mid-window — long
// before the next batch sample would even start collecting. The
// tracker is passive (output bit-identical on or off) and its per-bit
// cost is measured into trngd_shard_stream_cost_seconds{shard}.
// -stream-window 0 switches the tracker off.
//
// # Operating point
//
// The default profile serves the paper's CALIBRATED model (-amp 1) at
// its honest operating point — K = 640000 Osc2 periods of accumulated
// jitter per output bit — on the leapfrog fast path (-leapfrog,
// default on): each bit's window is advanced by a few closed-form
// jumps (internal/osc Leapfrog, LeapfrogToBefore) and only the ~5
// edges straddling the sampling instant are walked, so a raw bit costs
// ~10–20 µs (2-core Xeon) at this divider as at K = 10⁵, and
// calibrated physics serves at real throughput. Rings under an attack
// Modulator fall back to exact edge stepping.
//
// -amp remains as an EXPERIMENT knob, not a throughput necessity: it
// amplifies the jitter amplitude -amp× (variances scale amp²) to model
// a hypothetical higher-jitter technology. Scaling thermal and flicker
// together preserves every ratio the paper's analysis rests on (r_N,
// the a/b corner, N*(95%)); the sampling divider auto-scales as
// K = 64·(100/amp)² unless -divider is given, holding the accumulated
// jitter per bit — and with it the entropy per bit — constant across
// amp. With -leapfrog=false the pre-fast-path behaviour (edge-level
// simulation, where -amp 100 was needed for serving-scale rates) is
// available as the golden reference.
//
// At the calibrated default on a 2-core Xeon, expect ~0.6 s of startup
// (the AIS31 startup test consumes 20000 bits per shard), ~2 s until
// DRBG output with 3 shards (gated on the first 65536-bit assessment)
// and a steady-state raw rate of ~10 KB/s per shard — faster than the
// 103 MHz hardware itself would emit bits at K = 640000.
//
// -cpuprofile / -memprofile write pprof profiles of the serving path
// for perf work (the memory profile is written at shutdown).
//
// Usage:
//
//	trngd [-addr :8080] [-mode drbg|raw] [-shards N]
//	      [-source ero|multiring] [-amp A] [-leapfrog] [-divider K]
//	      [-post none|xor2|xor4|xor8|vn] [-seed S] [-queue Q]
//	      [-maxbytes M] [-wait D] [-buf B]
//	      [-drbg ctr|hmac] [-cond hmac|cbcmac] [-reseed-interval N]
//	      [-drbg-block B] [-seed-wait D] [-seedtap B]
//	      [-assess] [-assess-bits N] [-assess-every N] [-assess-min H]
//	      [-stream-window W] [-stream-panes P] [-stream-min H]
//	      [-admin] [-events N] [-log-level L] [-pprof]
//	      [-cpuprofile F] [-memprofile F]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/conditioner"
	"repro/internal/core"
	"repro/internal/entropyd"
	"repro/internal/loadstat"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/profiling"
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

// chunkBytes is the pooled response-buffer size: larger requests
// stream in chunkBytes slices instead of holding an n-byte buffer per
// request for the whole service time.
const chunkBytes = 64 << 10

// respBuf is a pooled response buffer plus a per-size header cache.
// Together they make the steady-state request path allocation-free:
// the buffer replaces the per-request make([]byte, n), and repeated
// requests for the same n reuse the rendered Content-Length value.
type respBuf struct {
	buf   [chunkBytes]byte
	lastN int
	cl    []string
}

var respBufs = sync.Pool{New: func() any { return new(respBuf) }}

// contentLength returns a cached Content-Length header value for n.
func (rb *respBuf) contentLength(n int) []string {
	if rb.cl == nil || rb.lastN != n {
		rb.cl = []string{strconv.Itoa(n)}
		rb.lastN = n
	}
	return rb.cl
}

// ctOctet is the shared Content-Type header value, assigned directly
// into the header map (http.Header.Set would allocate a fresh
// one-element slice per request).
var ctOctet = []string{"application/octet-stream"}

// queryParam extracts key's value from a raw query string without
// allocating (r.URL.Query() builds a url.Values map per call). It
// agrees with url.ParseQuery(raw).Get/Has on every query ParseQuery
// accepts. Escaped keys and values fall back to url.QueryUnescape;
// /random's parameters are plain integers and booleans, so a
// well-formed client never leaves the fast path.
func queryParam(raw, key string) (string, bool) {
	for len(raw) > 0 {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		if strings.ContainsAny(k, "%+") {
			u, err := url.QueryUnescape(k)
			if err != nil {
				continue
			}
			k = u
		}
		if k != key {
			continue
		}
		if strings.ContainsAny(v, "%+") {
			if u, err := url.QueryUnescape(v); err == nil {
				return u, true
			}
		}
		return v, true
	}
	return "", false
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

// generate fills dst from the serving path of the active mode. A nil
// error with a short count is starvation (unavailability); a non-nil
// error is an internal fault.
func (s *server) generate(dst []byte, pr bool) (int, error) {
	if s.drbg != nil {
		// DRBG mode: expansion-layer output. A short count means no
		// lane could (re)seed in time — every shard quarantined,
		// unassessed, or the tap starved. Fail closed.
		got, err := s.drbg.Generate(dst, pr, s.cfg.wait)
		if err != nil && !errors.Is(err, entropyd.ErrSeedStarved) {
			return got, err
		}
		return got, nil
	}
	// Raw mode: ReadBuffered waits out the deadline internally; a
	// short return means the healthy shards could not produce the
	// bytes in time (or none are healthy). The partial bytes are
	// dropped.
	got, err := s.pool.ReadBuffered(dst, s.cfg.wait)
	if err != nil && !errors.Is(err, entropyd.ErrStarved) && !errors.Is(err, entropyd.ErrNotServing) {
		return got, err
	}
	return got, nil
}

// handleRandom is GET /random?bytes=N: the zero-allocation hot path.
// Responses are produced into pooled chunkBytes buffers and streamed,
// so a 1 MiB request never holds a 1 MiB allocation and steady-state
// requests allocate nothing at all.
func (s *server) handleRandom(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	// Phase accumulators for the request-phase histograms. Recorded in
	// one defer (still allocation-free: the deferred closure is
	// open-coded) and only for requests that entered the queue, so the
	// three phases always have equal counts.
	var queueDur, genDur, writeDur time.Duration
	entered := false
	defer func() {
		s.lat.Record(time.Since(t0))
		if entered {
			s.latQueue.Record(queueDur)
			s.latGen.Record(genDur)
			s.latWrite.Record(writeDur)
		}
	}()
	s.requests.Add(1)
	n := 32
	if q, ok := queryParam(r.URL.RawQuery, "bytes"); ok && q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bytes must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	if n > s.cfg.maxBytes {
		http.Error(w, fmt.Sprintf("bytes exceeds limit %d", s.cfg.maxBytes), http.StatusBadRequest)
		return
	}
	pr := false
	if q, ok := queryParam(r.URL.RawQuery, "pr"); ok && q != "" {
		v, err := strconv.ParseBool(q)
		if err != nil {
			http.Error(w, "pr must be a boolean", http.StatusBadRequest)
			return
		}
		if v && s.drbg == nil {
			http.Error(w, "prediction resistance requires -mode drbg", http.StatusBadRequest)
			return
		}
		pr = v
	}
	// Bounded queue: reject instead of queueing unboundedly.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Add(1)
		s.emit(obs.Event{Type: obs.TypeRequestShed, Shard: obs.Any, Lane: obs.Any,
			Value: float64(n), Reason: "queue full"})
		http.Error(w, "request queue full", http.StatusServiceUnavailable)
		return
	}
	queueDur = time.Since(t0)
	entered = true
	rb := respBufs.Get().(*respBuf)
	defer respBufs.Put(rb)
	for written := 0; written < n; {
		c := n - written
		if c > chunkBytes {
			c = chunkBytes
		}
		chunk := rb.buf[:c]
		g0 := time.Now()
		got, err := s.generate(chunk, pr)
		genDur += time.Since(g0)
		if err != nil && written == 0 {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err == nil && got < c {
			// Starved or shutting down: the pool could not produce the
			// bytes in time — unavailability, not an error.
			s.starved.Add(1)
			s.emit(obs.Event{Type: obs.TypeStarveAbort, Shard: obs.Any, Lane: obs.Any,
				Value: float64(written), Reason: "pool unavailable"})
		}
		if err != nil || got < c {
			if written == 0 {
				http.Error(w, "pool unavailable", http.StatusServiceUnavailable)
				return
			}
			// Mid-stream failure: the 200 and Content-Length are
			// already on the wire. Abort the connection so the client
			// sees a truncated body — never padded or stale bytes.
			panic(http.ErrAbortHandler)
		}
		if written == 0 {
			h := w.Header()
			h["Content-Type"] = ctOctet
			h["Content-Length"] = rb.contentLength(n)
		}
		w0 := time.Now()
		_, werr := w.Write(chunk)
		writeDur += time.Since(w0)
		if werr != nil {
			// Client went away; nothing useful left to do.
			return
		}
		written += c
	}
	s.served.Add(uint64(n))
}

// healthzResponse is the /healthz payload. Each ShardStatus carries
// the shard's latest assessed min-entropy, assessment age and epoch —
// the inputs that gate DRBG reseeds — next to its health state; DRBG
// is present in DRBG mode with the expansion-layer lane states.
type healthzResponse struct {
	Status    string                 `json:"status"`
	Mode      string                 `json:"mode"`
	Healthy   int                    `json:"healthy"`
	Shards    []entropyd.ShardStatus `json:"shards"`
	DRBG      *entropyd.DRBGStats    `json:"drbg,omitempty"`
	Incidents *incidentSummary       `json:"incidents,omitempty"`
}

// incidentSummary is the /healthz open-incident summary line: how many
// incidents are open right now, how many of those are correlated
// (fleet-level), and how many incidents the engine has seen in total.
type incidentSummary struct {
	Open       int    `json:"open"`
	Correlated int    `json:"correlated"`
	Total      uint64 `json:"total"`
}

// handleHealthz is GET /healthz.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	resp := healthzResponse{Mode: s.mode(), Healthy: st.Healthy, Shards: st.Shards}
	if s.drbg != nil {
		d := s.drbg.Stats()
		resp.DRBG = &d
	}
	if eng := s.cfg.incidents; eng != nil {
		ist := eng.Stats()
		resp.Incidents = &incidentSummary{
			Open:       ist.Open,
			Correlated: ist.OpenByClass[incident.ClassCorrelated],
			Total:      ist.Totals[incident.ClassSingleShard] + ist.Totals[incident.ClassCorrelated],
		}
	}
	code := http.StatusOK
	switch {
	case st.Healthy == len(st.Shards):
		resp.Status = "ok"
	case st.Healthy > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "starved"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// assessResponse is the GET /assess payload: one entry per shard,
// null until that shard's first assessment completes.
type assessResponse struct {
	Shards []*entropyd.Assessment `json:"shards"`
}

// handleAssess is GET /assess[?shard=I][&live=1]: the latest per-shard
// SP 800-90B assessment reports — the periodic batch run by default,
// or the live sliding-window streaming report with ?live=1.
func (s *server) handleAssess(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	live := r.URL.Query().Get("live") == "1"
	report := func(i int) *entropyd.Assessment {
		if live {
			return s.pool.Shard(i).LiveAssessment()
		}
		return s.pool.Shard(i).LastAssessment()
	}
	if q := r.URL.Query().Get("shard"); q != "" {
		i, err := strconv.Atoi(q)
		if err != nil || i < 0 || i >= s.pool.NumShards() {
			http.Error(w, "shard out of range", http.StatusBadRequest)
			return
		}
		a := report(i)
		if a == nil {
			if live {
				http.Error(w, "no live report yet (tracker off or window not full)", http.StatusNotFound)
			} else {
				http.Error(w, "no assessment completed yet", http.StatusNotFound)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a)
		return
	}
	resp := assessResponse{Shards: make([]*entropyd.Assessment, s.pool.NumShards())}
	for i := range resp.Shards {
		resp.Shards[i] = report(i)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleMetrics is GET /metrics (Prometheus text format 0.0.4). Every
// family carries HELP and TYPE; internal/obs.LintProm holds the output
// to the format spec in tests and CI.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	up := time.Since(s.start).Seconds()
	served := s.served.Load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	family := func(name, typ, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	}
	// histB renders a loadstat snapshot as one labeled series of a
	// Prometheus histogram family over the given bucket ladder. labels
	// is the rendered label list without braces ("" for none); le is
	// appended. hist is the request-latency-scale shorthand.
	histB := func(name, labels string, snap *loadstat.Snapshot, bounds []promBound) {
		sep := ""
		if labels != "" {
			sep = ","
		}
		for _, b := range bounds {
			fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, b.label, snap.CountBelow(b.d))
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, snap.Count())
		if labels != "" {
			fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, snap.Sum().Seconds())
			fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, snap.Count())
		} else {
			fmt.Fprintf(w, "%s_sum %g\n", name, snap.Sum().Seconds())
			fmt.Fprintf(w, "%s_count %d\n", name, snap.Count())
		}
	}
	hist := func(name, labels string, snap *loadstat.Snapshot) {
		histB(name, labels, snap, latencyBounds)
	}
	family("trngd_build_info", "gauge", "Build identity (constant 1; the facts are in the labels).")
	fmt.Fprintf(w, "trngd_build_info{go_version=%q,revision=%q} 1\n", s.goVersion, s.revision)
	family("trngd_uptime_seconds", "gauge", "Daemon uptime.")
	fmt.Fprintf(w, "trngd_uptime_seconds %g\n", up)
	family("trngd_requests_total", "counter", "/random requests received.")
	fmt.Fprintf(w, "trngd_requests_total %d\n", s.requests.Load())
	family("trngd_requests_rejected_total", "counter", "Requests rejected by the bounded queue.")
	fmt.Fprintf(w, "trngd_requests_rejected_total %d\n", s.rejected.Load())
	family("trngd_requests_starved_total", "counter", "Requests failed on pool starvation.")
	fmt.Fprintf(w, "trngd_requests_starved_total %d\n", s.starved.Load())
	family("trngd_bytes_served_total", "counter", "Random bytes delivered.")
	fmt.Fprintf(w, "trngd_bytes_served_total %d\n", served)
	family("trngd_throughput_bytes_per_second", "gauge", "Mean delivery rate since start.")
	fmt.Fprintf(w, "trngd_throughput_bytes_per_second %g\n", float64(served)/math.Max(up, 1e-9))
	// Runtime health of the daemon process itself.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	family("trngd_goroutines", "gauge", "Live goroutines.")
	fmt.Fprintf(w, "trngd_goroutines %d\n", runtime.NumGoroutine())
	family("trngd_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.")
	fmt.Fprintf(w, "trngd_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)
	family("trngd_gc_runs_total", "counter", "Completed GC cycles.")
	fmt.Fprintf(w, "trngd_gc_runs_total %d\n", ms.NumGC)
	family("trngd_heap_alloc_bytes", "gauge", "Live heap bytes.")
	fmt.Fprintf(w, "trngd_heap_alloc_bytes %d\n", ms.HeapAlloc)
	family("trngd_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.")
	fmt.Fprintf(w, "trngd_heap_sys_bytes %d\n", ms.HeapSys)
	// /random service latency, downsampled from the loadstat histogram
	// to Prometheus cumulative le-buckets. The same histogram type backs
	// cmd/loadgen, so the in-process view and an external load run are
	// directly comparable.
	mode := s.mode()
	family("trngd_request_duration_seconds", "histogram", "/random service latency.")
	hist("trngd_request_duration_seconds", fmt.Sprintf("mode=%q", mode), s.lat.Snapshot())
	// The same latency split into phases: queue-wait (acquiring a queue
	// slot), lane-generate (pool/DRBG byte production) and
	// response-write (flushing to the client). Only requests that
	// entered the queue are phased, so the three series share a count.
	family("trngd_request_phase_duration_seconds", "histogram", "/random service latency by request phase.")
	for _, ph := range []struct {
		name string
		h    *loadstat.Histogram
	}{
		{"queue-wait", s.latQueue},
		{"lane-generate", s.latGen},
		{"response-write", s.latWrite},
	} {
		hist("trngd_request_phase_duration_seconds",
			fmt.Sprintf("mode=%q,phase=%q", mode, ph.name), ph.h.Snapshot())
	}
	// Flight-recorder journal.
	if j := s.cfg.journal; j != nil {
		family("trngd_journal_events_total", "counter", "Events recorded by the flight-recorder journal.")
		fmt.Fprintf(w, "trngd_journal_events_total %d\n", j.LastSeq())
		family("trngd_journal_capacity_events", "gauge", "Journal ring capacity (older events are overwritten).")
		fmt.Fprintf(w, "trngd_journal_capacity_events %d\n", j.Capacity())
		family("trngd_journal_dropped_total", "counter", "Journal events lost to ring overwrite before an /events reader saw them (sums the dropped counts of every page served).")
		fmt.Fprintf(w, "trngd_journal_dropped_total %d\n", s.dropped.Load())
	}
	// Fleet incident correlation: incidents opened by class, the open
	// set, resolved blast radii, MTTD/MTTR and the per-shard detection
	// latencies. Incident class series render even at zero so
	// dashboards and CI can assert their presence; a
	// single-shard→correlated upgrade moves one count between the class
	// labels (the sum stays monotonic).
	if eng := s.cfg.incidents; eng != nil {
		ist := eng.Stats()
		if lats := ist.Detection; len(lats) > 0 {
			classes := make([]string, 0, len(lats))
			for c := range lats {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			family("trngd_shard_detection_latency_seconds", "histogram",
				"Injection-marker to quarantine latency per alarm class.")
			for _, c := range classes {
				hist("trngd_shard_detection_latency_seconds", fmt.Sprintf("class=%q", c), lats[c])
			}
		}
		family("trngd_incidents_total", "counter", "Incidents opened by the correlation engine, labeled by current class.")
		for _, c := range incident.Classes {
			fmt.Fprintf(w, "trngd_incidents_total{class=%q} %d\n", c, ist.Totals[c])
		}
		family("trngd_incidents_open", "gauge", "Currently open (unresolved) incidents.")
		fmt.Fprintf(w, "trngd_incidents_open %d\n", ist.Open)
		family("trngd_incident_blast_radius", "histogram", "Distinct shards per resolved incident.")
		cum := uint64(0)
		for i, b := range incident.BlastBounds {
			cum += ist.BlastBuckets[i]
			fmt.Fprintf(w, "trngd_incident_blast_radius_bucket{le=\"%d\"} %d\n", b, cum)
		}
		fmt.Fprintf(w, "trngd_incident_blast_radius_bucket{le=\"+Inf\"} %d\n", ist.BlastCount)
		fmt.Fprintf(w, "trngd_incident_blast_radius_sum %g\n", ist.BlastSum)
		fmt.Fprintf(w, "trngd_incident_blast_radius_count %d\n", ist.BlastCount)
		mtt := func(name, help string, byClass map[string]*loadstat.Snapshot) {
			family(name, "histogram", help)
			for _, c := range incident.Classes {
				snap := byClass[c]
				if snap == nil {
					snap = loadstat.New().Snapshot() // render the ladder at zero
				}
				histB(name, fmt.Sprintf("class=%q", c), snap, incidentBounds)
			}
		}
		mtt("trngd_incident_mttd_seconds", "Incident detection time: injection marker to first alarm, per class.", ist.MTTD)
		mtt("trngd_incident_mttr_seconds", "Incident recovery time: opened to all member shards healed, per class.", ist.MTTR)
	}
	family("trngd_shards_healthy", "gauge", "Healthy shard count.")
	fmt.Fprintf(w, "trngd_shards_healthy %d\n", st.Healthy)
	family("trngd_shard_state", "gauge", "Shard state (0 startup, 1 healthy, 2 quarantined).")
	for _, sh := range st.Shards {
		state := 0
		switch sh.State {
		case "healthy":
			state = 1
		case "quarantined":
			state = 2
		}
		fmt.Fprintf(w, "trngd_shard_state{shard=\"%d\"} %d\n", sh.Index, state)
	}
	emit := func(name, help string, value func(entropyd.ShardStatus) uint64) {
		family(name, "counter", help)
		for _, sh := range st.Shards {
			fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, sh.Index, value(sh))
		}
	}
	emit("trngd_shard_bytes_total", "Gated bytes produced.", func(sh entropyd.ShardStatus) uint64 { return sh.BytesOut })
	emit("trngd_shard_raw_bits_total", "Raw (das) bits consumed.", func(sh entropyd.ShardStatus) uint64 { return sh.RawBits })
	emit("trngd_shard_tot_alarms_total", "Total-failure test alarms.", func(sh entropyd.ShardStatus) uint64 { return sh.TotAlarms })
	emit("trngd_shard_thermal_low_alarms_total", "Thermal monitor low-side alarms.", func(sh entropyd.ShardStatus) uint64 { return sh.MonitorLow })
	emit("trngd_shard_thermal_high_alarms_total", "Thermal monitor high-side alarms.", func(sh entropyd.ShardStatus) uint64 { return sh.MonitorHigh })
	emit("trngd_shard_startup_failures_total", "Startup test failures.", func(sh entropyd.ShardStatus) uint64 { return sh.StartupFailures })
	emit("trngd_shard_quarantines_total", "Quarantine events.", func(sh entropyd.ShardStatus) uint64 { return sh.Quarantines })
	emit("trngd_shard_drained_bytes_total", "Bytes discarded by quarantine drains.", func(sh entropyd.ShardStatus) uint64 { return sh.DrainedBytes })
	emit("trngd_shard_assess_runs_total", "Completed SP 800-90B raw-bit assessments.", func(sh entropyd.ShardStatus) uint64 { return sh.AssessRuns })
	emit("trngd_shard_assess_alarms_total", "Low-entropy quarantines raised by the assessment.", func(sh entropyd.ShardStatus) uint64 { return sh.AssessAlarms })
	family("trngd_shard_assess_min_entropy", "gauge", "Latest assessed suite min-entropy (bits per raw bit).")
	for _, sh := range st.Shards {
		if sh.AssessRuns > 0 {
			fmt.Fprintf(w, "trngd_shard_assess_min_entropy{shard=\"%d\"} %g\n", sh.Index, sh.AssessMinEntropy)
		}
	}
	// The age gauge only makes sense for a serving shard: a quarantined
	// shard is not collecting toward its next assessment, so its "age"
	// would grow without bound and trip staleness alerts on a shard that
	// is already benched. The sample is dropped until the shard heals.
	family("trngd_shard_assess_age_seconds", "gauge", "Wall-clock age of the latest assessment (healthy shards only; dropped while quarantined).")
	for _, sh := range st.Shards {
		if sh.AssessRuns > 0 && sh.State == "healthy" {
			fmt.Fprintf(w, "trngd_shard_assess_age_seconds{shard=\"%d\"} %g\n", sh.Index, sh.AssessAgeSeconds)
		}
	}
	// Streaming surveillance: live sliding-window estimates, watermark
	// quarantines, and the measured per-raw-bit tracker cost.
	emit("trngd_shard_live_alarms_total", "Mid-window watermark quarantines raised by streaming surveillance.", func(sh entropyd.ShardStatus) uint64 { return sh.LiveAlarms })
	family("trngd_shard_live_min_entropy", "gauge", "Live sliding-window min-entropy (bits per raw bit) per estimator; estimator=\"suite\" is the per-shard minimum.")
	for _, sh := range st.Shards {
		a := s.pool.Shard(sh.Index).LiveAssessment()
		if a == nil {
			continue
		}
		for _, e := range a.Report.Estimates {
			fmt.Fprintf(w, "trngd_shard_live_min_entropy{shard=\"%d\",estimator=%q} %g\n", sh.Index, e.Name, e.MinEntropy)
		}
		fmt.Fprintf(w, "trngd_shard_live_min_entropy{shard=\"%d\",estimator=\"suite\"} %g\n", sh.Index, a.Report.MinEntropy)
	}
	family("trngd_shard_live_age_seconds", "gauge", "Wall-clock age of the live streaming report (healthy shards with a full window only).")
	for _, sh := range st.Shards {
		if sh.LiveAgeSeconds >= 0 && sh.State == "healthy" {
			fmt.Fprintf(w, "trngd_shard_live_age_seconds{shard=\"%d\"} %g\n", sh.Index, sh.LiveAgeSeconds)
		}
	}
	family("trngd_shard_stream_cost_seconds", "histogram", "Streaming surveillance cost per raw bit (one sample per gated chunk).")
	for _, sh := range st.Shards {
		if snap := s.pool.Shard(sh.Index).StreamCost(); snap != nil && snap.Count() > 0 {
			histB("trngd_shard_stream_cost_seconds", fmt.Sprintf("shard=\"%d\"", sh.Index), snap, streamCostBounds)
		}
	}
	if s.drbg == nil {
		return
	}
	d := s.drbg.Stats()
	family("trngd_drbg_generates_total", "counter", fmt.Sprintf("DRBG output blocks generated (%d bytes each).", d.BlockBytes))
	fmt.Fprintf(w, "trngd_drbg_generates_total %d\n", d.Generates)
	family("trngd_drbg_reseeds_total", "counter", "Successful DRBG seeding events (instantiations included).")
	fmt.Fprintf(w, "trngd_drbg_reseeds_total %d\n", d.Reseeds)
	family("trngd_drbg_reseed_failures_total", "counter", "Failed DRBG seeding events (lane failed closed for the turn).")
	fmt.Fprintf(w, "trngd_drbg_reseed_failures_total %d\n", d.ReseedFailures)
	family("trngd_drbg_seed_draws_total", "counter", "Full-entropy conditioner blocks drawn from shard taps.")
	fmt.Fprintf(w, "trngd_drbg_seed_draws_total %d\n", d.SeedDraws)
	family("trngd_drbg_seed_starves_total", "counter", "Seed draws that timed out with no eligible shard.")
	fmt.Fprintf(w, "trngd_drbg_seed_starves_total %d\n", d.SeedStarves)
	family("trngd_drbg_lane_reseed_counter", "gauge", "Generate calls since the lane's last seed (SP 800-90A reseed_counter).")
	for _, l := range d.Lanes {
		if l.Instantiated {
			fmt.Fprintf(w, "trngd_drbg_lane_reseed_counter{lane=\"%d\"} %d\n", l.Shard, l.ReseedCounter)
		}
	}
}

// promBound is one le-bucket upper bound: the rendered label and the
// duration it translates to against loadstat.Snapshot.CountBelow.
type promBound struct {
	label string
	d     time.Duration
}

// latencyBounds are the Prometheus le-bucket upper bounds for the
// request-duration histograms: a log-spaced ladder from fast in-memory
// serves to the -wait deadline region.
var latencyBounds = []promBound{
	{"0.0001", 100 * time.Microsecond},
	{"0.0005", 500 * time.Microsecond},
	{"0.001", time.Millisecond},
	{"0.005", 5 * time.Millisecond},
	{"0.01", 10 * time.Millisecond},
	{"0.05", 50 * time.Millisecond},
	{"0.1", 100 * time.Millisecond},
	{"0.5", 500 * time.Millisecond},
	{"1", time.Second},
	{"5", 5 * time.Second},
	{"10", 10 * time.Second},
}

// incidentBounds are the le-bucket bounds for incident MTTD/MTTR:
// sub-second detections through multi-minute recoveries (recalibration
// takes startup-test time, so recovery lives in the tens of seconds).
var incidentBounds = []promBound{
	{"0.1", 100 * time.Millisecond},
	{"0.5", 500 * time.Millisecond},
	{"1", time.Second},
	{"5", 5 * time.Second},
	{"15", 15 * time.Second},
	{"30", 30 * time.Second},
	{"60", time.Minute},
	{"300", 5 * time.Minute},
	{"900", 15 * time.Minute},
}

// streamCostBounds are the le-bucket bounds for the per-raw-bit
// streaming surveillance cost: a nanosecond-scale ladder (the tracker
// costs single-digit microseconds per bit), three decades below the
// request-latency ladder's first bucket.
var streamCostBounds = []promBound{
	{"1e-07", 100 * time.Nanosecond},
	{"2.5e-07", 250 * time.Nanosecond},
	{"5e-07", 500 * time.Nanosecond},
	{"1e-06", time.Microsecond},
	{"2.5e-06", 2500 * time.Nanosecond},
	{"5e-06", 5 * time.Microsecond},
	{"1e-05", 10 * time.Microsecond},
	{"2.5e-05", 25 * time.Microsecond},
	{"5e-05", 50 * time.Microsecond},
	{"0.0001", 100 * time.Microsecond},
}

// handleEvents is GET /events[?since=SEQ&shard=I&lane=I&type=T&limit=N]:
// the flight-recorder journal as one obs.Page, oldest matching event
// first. last_seq is the reader's next ?since= cursor even when no
// event matched; dropped is the history the ring overwrote before this
// reader got to it. 404 when the journal is disabled (-events 0).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.journal == nil {
		http.Error(w, "event journal disabled (-events 0)", http.StatusNotFound)
		return
	}
	q := obs.NewQuery()
	values := r.URL.Query()
	if v := values.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
			return
		}
		q.Since = n
	}
	if v := values.Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "shard must be a non-negative integer", http.StatusBadRequest)
			return
		}
		q.Shard = n
	}
	if v := values.Get("lane"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "lane must be a non-negative integer", http.StatusBadRequest)
			return
		}
		q.Lane = n
	}
	if v := values.Get("type"); v != "" {
		q.Type = obs.Type(v)
	}
	if v := values.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		q.Max = n
	}
	page := s.cfg.journal.Read(q)
	if page.Dropped > 0 {
		s.dropped.Add(page.Dropped)
	}
	if page.Events == nil {
		page.Events = []obs.Event{} // an empty page is "events": [], not null
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(page)
}

// incidentsResponse is the GET /incidents payload. LastID is the
// reader's next ?since= cursor; Open counts the unresolved incidents
// in the page (open incidents are returned whatever the cursor).
type incidentsResponse struct {
	LastID    uint64              `json:"last_id"`
	WindowSec float64             `json:"window_seconds"`
	Open      int                 `json:"open"`
	Incidents []incident.Incident `json:"incidents"`
}

// handleIncidents is GET /incidents[?since=ID]: the fleet incident
// view from the correlation engine — every open incident plus the
// retained resolved incidents with ID > since, oldest first. 404 when
// the engine is disabled (-incident-window 0 or -events 0).
func (s *server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	eng := s.cfg.incidents
	if eng == nil {
		http.Error(w, "incident engine disabled (-incident-window 0 or -events 0)", http.StatusNotFound)
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
			return
		}
		since = n
	}
	incs, last := eng.Incidents(since)
	if incs == nil {
		incs = []incident.Incident{}
	}
	open := 0
	for i := range incs {
		if !incs[i].Resolved {
			open++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(incidentsResponse{
		LastID:    last,
		WindowSec: eng.Window().Seconds(),
		Open:      open,
		Incidents: incs,
	})
}

// handleQuarantine is POST /quarantine?shard=I (admin only).
func (s *server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	i, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		http.Error(w, "shard must be an integer", http.StatusBadRequest)
		return
	}
	if err := s.pool.InjectAlarm(i); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "alarm injected into shard %d\n", i)
}

// autoDivider returns the default eRO sampling divider for a jitter
// amplification: K = 64·(100/amp)², which holds the accumulated jitter
// per output bit — and with it the entropy per bit — constant across
// amp. At calibrated physics (amp = 1) this is the paper's honest
// operating regime of K = 64·100² = 640000 periods per bit.
func autoDivider(amp float64) int {
	return int(math.Max(1, math.Round(64*(100/amp)*(100/amp))))
}

// postChain parses the -post flag.
func postChain(name string) ([]entropyd.PostStage, error) {
	switch name {
	case "none", "":
		return nil, nil
	case "xor2":
		return []entropyd.PostStage{{Op: entropyd.PostXOR, K: 2}}, nil
	case "xor4":
		return []entropyd.PostStage{{Op: entropyd.PostXOR, K: 4}}, nil
	case "xor8":
		return []entropyd.PostStage{{Op: entropyd.PostXOR, K: 8}}, nil
	case "vn":
		return []entropyd.PostStage{{Op: entropyd.PostVonNeumann}}, nil
	default:
		return nil, fmt.Errorf("unknown post-processing %q", name)
	}
}

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		mode        = flag.String("mode", "drbg", "serving mode: drbg (SP 800-90C expansion) or raw (gated raw stream)")
		shards      = flag.Int("shards", 4, "independent generator shards")
		source      = flag.String("source", "ero", "entropy source: ero or multiring")
		amp         = flag.Float64("amp", 1, "jitter amplification over the paper model (1 = calibrated physics; >1 is an experiment knob)")
		leapfrog    = flag.Bool("leapfrog", true, "O(1)-per-window fast path (false = edge-level golden reference)")
		divider     = flag.Int("divider", 0, "eRO sampling divider K (0 = auto-scale 64*(100/amp)^2)")
		post        = flag.String("post", "none", "post-processing: none, xor2, xor4, xor8 or vn")
		seed        = flag.Uint64("seed", 1, "pool root seed")
		queue       = flag.Int("queue", 64, "max in-flight /random requests (backpressure bound)")
		maxBytes    = flag.Int("maxbytes", 1<<20, "largest /random request")
		wait        = flag.Duration("wait", 5*time.Second, "max time to wait for the pool per request")
		drain       = flag.Duration("drain", 10*time.Second, "graceful-shutdown budget: max time to drain in-flight requests on SIGTERM/SIGINT")
		buf         = flag.Int("buf", 1<<16, "per-shard ring buffer bytes")
		drbgKind    = flag.String("drbg", "ctr", "DRBG mechanism: ctr (CTR_DRBG-AES-256) or hmac (HMAC_DRBG-SHA-256)")
		cond        = flag.String("cond", "hmac", "vetted conditioning: hmac (HMAC-SHA-256) or cbcmac (CBC-MAC/AES-256)")
		reseedIv    = flag.Uint64("reseed-interval", 1024, "DRBG output blocks per seed (fail closed past it)")
		drbgBlock   = flag.Int("drbg-block", 4096, "DRBG output block bytes (request-chunking granularity)")
		seedWait    = flag.Duration("seed-wait", 2*time.Second, "max wait per DRBG seed draw before failing closed (starved draws retry on a jittered exponential backoff)")
		seedTap     = flag.Int("seedtap", 1<<13, "per-shard raw seed tap bytes (drbg mode)")
		admin       = flag.Bool("admin", false, "enable POST /quarantine (operator drills)")
		events      = flag.Int("events", obs.DefaultCapacity, "event journal capacity (0 disables the journal and /events)")
		incidentWin = flag.Duration("incident-window", incident.DefaultWindow, "cross-shard alarm correlation window for the incident engine (0 disables it, /incidents and trngd_shard_detection_latency_seconds; requires -events > 0)")
		logLevel    = flag.String("log-level", "info", "log level: debug, info, warn or error")
		pprofOn     = flag.Bool("pprof", false, "mount /debug/pprof on the serving mux")
		assess      = flag.Bool("assess", true, "periodic SP 800-90B raw-bit assessment per shard")
		assessBits  = flag.Int("assess-bits", 1<<16, "raw bits per assessment sample")
		assessEvery = flag.Int("assess-every", 1<<20, "raw-bit cadence between assessments")
		assessMin   = flag.Float64("assess-min", 0.3, "quarantine below this assessed min-entropy (0 = monitor only)")
		streamWin   = flag.Int("stream-window", 16384, "streaming surveillance sliding-window bits (0 disables; min 10000)")
		streamPanes = flag.Int("stream-panes", 4, "staggered predictor panes per streaming tracker (must divide -stream-window)")
		streamMin   = flag.Float64("stream-min", 0.3, "quarantine below this live streaming min-entropy mid-window (0 = monitor only)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file at shutdown")
	)
	flag.Parse()
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "trngd: unknown -log-level %q (debug, info, warn or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)
	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		logger.Error("profiling setup failed", "err", err)
		os.Exit(1)
	}
	// os.Exit skips defers, so every fatal exit below must flush the
	// profiles explicitly.
	defer stopProf()
	fatal := func(msg string, args ...any) {
		stopProf()
		logger.Error(msg, args...)
		os.Exit(1)
	}
	if *amp <= 0 {
		fatal("-amp must be > 0", "amp", *amp)
	}
	if *events < 0 {
		fatal("-events must be >= 0", "events", *events)
	}
	model := core.PaperModel().ScaleJitter(*amp)
	k := *divider
	if k == 0 {
		k = autoDivider(*amp)
	}
	chain, err := postChain(*post)
	if err != nil {
		fatal("bad -post", "err", err)
	}
	var kind entropyd.SourceKind
	switch *source {
	case "ero":
		kind = entropyd.SourceERO
	case "multiring":
		kind = entropyd.SourceMultiRing
	default:
		fatal("unknown -source (ero or multiring)", "source", *source)
	}
	if *mode != "raw" && *mode != "drbg" {
		fatal("unknown -mode (raw or drbg)", "mode", *mode)
	}

	// The observability sink: the ring-buffer journal (serving /events)
	// plus structured logs sharing the same event vocabulary. Emission is passive — the pool's output is
	// bit-identical with or without it.
	var journal *obs.Journal
	var engine *incident.Engine
	sinks := []obs.Sink{obs.NewLogSink(logger)}
	if *events > 0 {
		journal = obs.NewJournal(*events)
		sinks = append(sinks, journal)
		// The incident engine rides the same fan-out: it correlates the
		// journal's alarm vocabulary across shards, so it only makes
		// sense with the journal on.
		if *incidentWin > 0 {
			engine = incident.New(*incidentWin)
			sinks = append(sinks, engine)
		}
	}
	sink := obs.Multi(sinks...)

	cfg := entropyd.Config{
		Shards: *shards,
		Seed:   *seed,
		Source: entropyd.SourceConfig{Kind: kind, Model: model.Phase, Divider: k, Leapfrog: *leapfrog},
		Post:   chain,
		Health: entropyd.HealthConfig{
			DisableAssess:    !*assess,
			AssessBits:       *assessBits,
			AssessEveryBits:  *assessEvery,
			AssessMinEntropy: *assessMin,
			StreamWindow:     *streamWin,
			StreamPanes:      *streamPanes,
			StreamMinEntropy: *streamMin,
		},
		BufBytes: *buf,
		Sink:     sink,
	}
	var drbgCfg entropyd.DRBGConfig
	if *mode == "drbg" {
		cfg.SeedTapBytes = *seedTap
		var condFn conditioner.Func
		switch *cond {
		case "hmac":
			condFn = conditioner.NewHMACSHA256(nil)
		case "cbcmac":
			var err error
			if condFn, err = conditioner.NewCBCMACAES256(nil); err != nil {
				fatal("conditioner setup failed", "err", err)
			}
		default:
			fatal("unknown -cond (hmac or cbcmac)", "cond", *cond)
		}
		drbgCfg = entropyd.DRBGConfig{
			ReseedInterval: *reseedIv,
			BlockBytes:     *drbgBlock,
			SeedWait:       *seedWait,
			Seed:           entropyd.SeedConfig{Cond: condFn},
		}
		switch *drbgKind {
		case "ctr":
			drbgCfg.Kind = entropyd.DRBGCTR
		case "hmac":
			drbgCfg.Kind = entropyd.DRBGHMAC
		default:
			fatal("unknown -drbg (ctr or hmac)", "drbg", *drbgKind)
		}
	}
	logger.Info("calibrating shards",
		"shards", *shards, "source", *source, "mode", *mode,
		"amp", *amp, "divider", k, "post", *post, "leapfrog", *leapfrog)
	t0 := time.Now()
	pool, err := entropyd.New(cfg)
	if err != nil {
		fatal("pool startup failed", "err", err)
	}
	st := pool.Stats()
	logger.Info("startup tests done",
		"elapsed", time.Since(t0).Round(time.Millisecond).String(),
		"healthy", st.Healthy, "shards", len(st.Shards))
	// Only non-healthy shards are worth a line here: a healthy shard's
	// "reason" is the empty none value, and logging it for every shard
	// buried the real failures.
	for _, sh := range st.Shards {
		if sh.State != "healthy" {
			logger.Warn("shard not healthy after startup",
				"shard", sh.Index, "state", sh.State, "reason", sh.Reason)
		}
	}

	var dp *entropyd.DRBGPool
	if *mode == "drbg" {
		if dp, err = pool.DRBGPool(drbgCfg); err != nil {
			fatal("drbg setup failed", "err", err)
		}
		logger.Info("drbg mode",
			"kind", drbgCfg.Kind.String(), "cond", *cond,
			"block_bytes", *drbgBlock, "reseed_interval", *reseedIv)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := pool.Serve(ctx); err != nil {
		fatal("pool serve failed", "err", err)
	}
	defer pool.Stop()

	sc := serverConfig{
		queue:     *queue,
		maxBytes:  *maxBytes,
		wait:      *wait,
		admin:     *admin,
		pprof:     *pprofOn,
		journal:   journal,
		sink:      sink,
		incidents: engine,
	}
	app := newServer(pool, dp, sc)
	srv := &http.Server{
		Addr:    *addr,
		Handler: app.handler(),
		// Slow-loris hardening: a client must present its headers and
		// drain its response promptly or lose the connection — queue
		// slots are for the pool's work, not for idle sockets. The
		// write budget covers the -wait pool deadline plus generous
		// wire time for a -maxbytes response.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      *wait + 60*time.Second,
		IdleTimeout:       2 * time.Minute,
		MaxHeaderBytes:    16 << 10,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr,
		"endpoints", "/random /healthz /assess /metrics /events /incidents",
		"admin", *admin, "pprof", *pprofOn, "journal_capacity", *events,
		"incident_window", incidentWin.String())

	// Graceful shutdown: on SIGTERM/SIGINT stop accepting, drain every
	// in-flight request within the -drain budget (nothing mid-stream is
	// truncated by us — the bounded queue keeps that set small), record
	// the shutdown in the journal, stop the pool, and exit 0. A second
	// signal during the drain kills the process the default way.
	select {
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			fatal("http server failed", "err", err)
		}
	case <-ctx.Done():
		stop()
		obs.Emit(sink, obs.Event{Type: obs.TypeShutdown, Shard: -1, Lane: -1,
			Detail: "signal", Value: drain.Seconds()})
		logger.Info("shutdown: draining in-flight requests", "drain", drain.String())
		shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(shutCtx)
		cancel()
		if err != nil {
			logger.Warn("drain budget exceeded; remaining connections aborted", "err", err)
		}
		if err := <-errCh; err != nil && err != http.ErrServerClosed {
			logger.Warn("http server failed during shutdown", "err", err)
		}
		// The pool stops only after the handlers drained: a request that
		// entered before the signal is served from live production, not
		// starved by our own teardown.
		pool.Stop()
		logger.Info("shutdown complete",
			"requests", app.requests.Load(),
			"rejected", app.rejected.Load(),
			"bytes_served", app.served.Load())
	}
}
