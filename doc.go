// Package repro reproduces "On the assumption of mutual independence of
// jitter realizations in P-TRNG stochastic models" (Haddad, Teglia,
// Bernard, Fischer — DATE 2014) as a production-quality Go library.
//
// The repository implements the paper's multilevel stochastic modeling
// approach for ring-oscillator true random number generators end to
// end: transistor-level noise PSDs, Hajimiri ISF phase-noise
// conversion, calibrated edge-time oscillator simulation, the
// differential counter measurement circuit, the σ²_N = a·N + b·N²
// analysis with its independence diagnostics, thermal-jitter
// extraction, naive-vs-refined entropy assessment, the proposed online
// thermal-noise monitor, and the AIS31 statistical test context.
//
// Campaign execution: every evaluation artifact is a counter campaign
// over many accumulation lengths N — embarrassingly parallel per
// (N, seed) cell. The campaigns run on internal/engine, a
// deterministic worker-pool layer: one task per cell, each cell's
// randomness derived from the campaign root seed with
// engine.DeriveSeed, results written to per-task slots. Tables are
// therefore bit-identical for every worker count (the -jobs flag of
// cmd/experiments and cmd/trngsim), which keeps parallel reproduction
// runs citable from (scale, seed) alone. Underneath, the oscillators
// generate edge times in chunks (osc.Oscillator.NextEdges) so each
// worker's hot loop is amortized as well as parallel.
//
// Fast path: the leapfrog layer advances a window of N oscillator
// periods at O(poles) cost instead of O(N·poles) —
// flicker.OUGenerator.AdvanceSum draws each pole's (end state, window
// sum) from its exact joint Gaussian law, osc.Oscillator.Leapfrog
// builds the window jump on top, osc.Oscillator.LeapfrogToBefore
// closes in on a sampling instant in staged jumps so only the few
// edges straddling it are walked exactly, and measure.Counter,
// trng.Generator, multiring.Generator and the entropyd shards expose
// it as a Leapfrog option. The fast path is exact in distribution,
// deterministic in the seed, and falls back to bit-exact edge stepping
// whenever an attack Modulator is installed; it is what lets cmd/trngd
// serve the paper's calibrated physics (K = 640000 periods per bit) at
// real throughput.
//
// Serving: internal/entropyd composes the generators (internal/trng,
// internal/multiring — both io.Readers), the post-processing blocks
// and the embedded tests (AIS31 tot/startup tests plus the paper's §V
// thermal monitor) into a sharded, health-gated entropy pool: shards
// that alarm are quarantined, drained and recalibrated while the pool
// keeps serving. cmd/trngd exposes the pool over HTTP (/random,
// /healthz, /assess, /metrics) with bounded-queue backpressure.
//
// Assessment: internal/sp90b implements the SP 800-90B non-IID
// min-entropy estimator suite (the US certification counterpart of
// the AIS 31 track the paper targets) over binary raw streams, plus
// the restart-matrix procedure. experiments.EntropyAssessment runs
// the black-box suite against simulated streams whose exact
// conditional entropy internal/entropy knows in closed form — the
// paper's overestimation story in certification language — while the
// entropyd shards assess their own raw bits periodically in the
// health lifecycle (low min-entropy quarantines like any alarm) and
// cmd/ea assesses captured raw-bit files offline.
//
// Expansion: internal/conditioner (SP 800-90B §3.1.5 vetted
// conditioning — HMAC-SHA-256, CBC-MAC/AES-256 — with the
// output-entropy credit formula) and internal/drbg (SP 800-90A
// HMAC_DRBG and CTR_DRBG-AES-256, pinned against NIST CAVP vectors)
// complete the SP 800-90C construction over the pool: entropyd's
// SeedSource distills assessed raw bits into full-entropy seed
// material — each shard's own latest assessment is the accounting
// input — and its DRBGPool runs one DRBG lane per shard, reseeding
// under the same health gates and failing closed on quarantine or
// starvation. Served output rate is then bounded by AES/SHA
// throughput instead of oscillator physics; cmd/trngd serves this by
// default (-mode drbg, with /random?pr=1 prediction resistance) and
// the raw gated stream with -mode raw. The DRBG lanes generate one
// block at a time in plain round-robin rotation under one lock, and
// the shards of a DRBG-mode pool keep no raw output ring: they run the
// health gates, surveillance and seed tap and discard the gated bytes.
//
// Load and measurement: internal/loadstat is the latency layer — a
// lock-free log-bucketed HDR-style histogram cheap enough for the
// daemon's per-request hot path. cmd/trngd records every /random
// service time into it and exports the Prometheus
// trngd_request_duration_seconds histogram; cmd/loadgen drives
// closed-loop (fixed concurrency) or open-loop (fixed arrival rate,
// shed-not-queue) load against a running daemon, reports
// p50/p99/p999 from the same histogram type, sweeps concurrency,
// rate and request size, and locates the goodput knee — the
// saturation point. The daemon's request path itself is
// allocation-free at steady state (pooled chunked response buffers,
// cached headers).
//
// Entry points:
//
//   - internal/core.Model — the multilevel model façade
//   - internal/experiments — regenerates every paper artifact
//   - internal/engine — the deterministic campaign runner
//   - internal/entropyd — the sharded, health-gated serving pool
//     (SeedSource + DRBGPool are its expansion layer)
//   - internal/sp90b — the SP 800-90B black-box assessment suite
//   - internal/conditioner, internal/drbg — vetted conditioning and
//     the SP 800-90A DRBG mechanisms
//   - internal/loadstat — the serving-latency histogram (daemon
//     /metrics and cmd/loadgen share it)
//   - cmd/* — command-line tools (cmd/trngd is the entropy daemon,
//     cmd/loadgen its load harness)
//   - examples/* — runnable walkthroughs
//
// See README.md for the architecture overview and layer map.
package repro
