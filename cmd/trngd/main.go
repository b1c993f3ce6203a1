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
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/conditioner"
	"repro/internal/core"
	"repro/internal/entropyd"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/profiling"
)

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
		buf         = flag.Int("buf", 1<<16, "per-shard ring buffer bytes (raw mode)")
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
	if *shards < 1 {
		fatal("-shards must be >= 1", "shards", *shards)
	}
	if *queue < 1 {
		fatal("-queue must be >= 1", "queue", *queue)
	}
	if *maxBytes < 1 {
		fatal("-maxbytes must be >= 1", "maxbytes", *maxBytes)
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
