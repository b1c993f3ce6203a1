// Package entropyd is the serving layer of the repository: it composes
// the simulated entropy sources (internal/trng, internal/multiring),
// the algebraic post-processing blocks (internal/postproc) and the
// embedded health tests (internal/ais31, internal/onlinetest — the
// paper's §V thermal-noise monitor) into a sharded, health-gated
// entropy pool, following the AIS31 source → digitizer → post-
// processing → online-test pipeline of paper Fig. 1.
//
// # Architecture
//
// A Pool owns S independent shards. Each shard has its own generator
// instance (seeded engine.DeriveSeed(pool seed, shard)), its own
// post-processing chain, and its own embedded test battery:
//
//   - the AIS31 total-failure (tot) test on the raw (das) bits;
//   - the AIS31 startup test (T1–T4, 20000 bits) on the gated output
//     of every calibration epoch, before any output is admitted;
//   - the paper's thermal-noise monitor: a Fig. 6 counter at small
//     accumulation length N (inside the independence region N < N*)
//     whose windowed s_N variance is checked against chi-square bounds
//     calibrated from the model's σ²_N — the generator-specific online
//     test the paper proposes;
//   - a periodic SP 800-90B non-IID assessment (internal/sp90b) of the
//     raw bits: every HealthConfig.AssessEveryBits raw bits the shard
//     copies an AssessBits sample aside and runs the black-box
//     estimator suite on it. The latest per-shard Report is published
//     (LastAssessment, cmd/trngd /assess) and a suite minimum below
//     AssessMinEntropy quarantines the shard like any other alarm;
//   - optionally (HealthConfig.StreamWindow > 0), CONTINUOUS streaming
//     surveillance (internal/sp90b/stream): the cheap half of the
//     estimator suite runs as sliding-window scoreboards over the raw
//     bits, publishing a live min-entropy bound every chunk
//     (Shard.LiveAssessment) and quarantining MID-window when it
//     crosses StreamMinEntropy (ReasonLiveEntropy) — the batch
//     assessment stays on as the periodic deep pass (suffix-array
//     estimators the streaming tracker does not run).
//
// # Health state machine
//
// Every shard runs the machine below; the pool keeps serving from the
// remaining healthy shards whenever one drops out (graceful
// degradation), and returns ErrStarved only when no shard is
// admissible.
//
//	           ┌─────────┐  startup test passes   ┌─────────┐
//	epoch e:   │ startup ├───────────────────────▶│ healthy │
//	           └────┬────┘                        └────┬────┘
//	                │ startup test fails               │ tot alarm /
//	                │ (or alarm during startup)        │ thermal monitor alarm /
//	                ▼                                  │ injected alarm
//	         ┌─────────────┐◀─────────────────────────┘
//	         │ quarantined │   (output ring DRAINED: undelivered
//	         └──────┬──────┘    bytes of the epoch are discarded)
//	                │ recalibrate: epoch e+1 — rebuild source and
//	                │ monitor from fresh derived seeds, re-run the
//	                │ startup test (serve mode retries with backoff)
//	                └──────────▶ back to startup
//
// Quarantine drains undelivered output because bits produced shortly
// before an alarm are suspect: the embedded tests detect a degradation
// only after it has affected the stream for a window.
//
// # Consumption modes
//
// The pool is consumable three ways:
//
//   - Fill(dst): the deterministic batch fast path. Output blocks of
//     fillBlock bytes are assigned round-robin over the healthy
//     shards and produced in parallel on internal/engine; because
//     every shard's stream is private and the block layout is a pure
//     function of (len(dst), healthy set), the output is bit-identical
//     for every worker count (jobs = 1 vs NumCPU).
//   - Read(p): io.Reader over Fill.
//   - Serve/ReadBuffered: the daemon hot path (cmd/trngd raw mode).
//     Each shard runs a producer goroutine that keeps a lock-light SPSC
//     ring topped up; consumers drain the rings in the same round-robin
//     block order, so in the healthy steady state the served stream
//     equals the Fill stream of a twin pool.
//
// A pool with a seed tap (Config.SeedTapBytes > 0) serves DRBG output
// through DRBGPool instead, never the raw stream: it has no output
// rings and ReadBuffered refuses it. Its serve-mode producers gate raw
// chunks through the tests, surveillance and tap and keep no gated
// bytes. Like a ring producer on a full ring, a tapped producer rests
// once its buffer is saturated: the shard holds an assessment of its
// current epoch, its tap is full, and one live window
// (HealthConfig.StreamWindow raw bits) has been gated behind the newest
// tapped chunk. Seed draws free tap space and wake it. Between its
// epoch's first assessment and its rest, a tapped producer gates each
// raw chunk under one of max(1, GOMAXPROCS-1) survey slots shared by
// the pool's producers, and shards recalibrating or assessing a new
// epoch take those slots first. Topping up taps thus never occupies
// every processor, requests do not queue behind it, and it does not
// slow a shard's return to service. Surveillance is
// therefore paced per raw bit, not per second: every bit that can reach
// a seed has passed tot, the thermal monitor and the tracker with a
// full window after it, but a resting shard tests nothing, so an idle
// daemon's assessment and live-report ages grow in wall time by design.
//
// Quarantined shards heal automatically in serve mode (producer
// goroutines recalibrate with backoff); in batch mode the caller
// triggers healing explicitly with Recalibrate.
package entropyd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/osc"
	"repro/internal/sp90b"
)

// fillBlock is the interleave granularity of the pool output: byte
// block i of a Fill (and of the buffered serve stream) comes from the
// i-th healthy shard in round-robin order. Block-sized interleave keeps
// parallel fills free of false sharing while bounding how much output
// any single shard contributes contiguously.
const fillBlock = 256

// ErrStarved is returned when no healthy shard remains to produce
// output (all quarantined and not yet recalibrated).
var ErrStarved = errors.New("entropyd: all shards quarantined")

// ErrNotServing is returned by ReadBuffered when the pool is not in
// serve mode (never entered, or already stopped/cancelled) or has a
// seed tap (it serves DRBG output, not the raw stream) — for an HTTP
// front end this is unavailability, not an internal error.
var ErrNotServing = errors.New("entropyd: pool is not serving")

// HealthConfig parameterizes the per-shard embedded tests.
type HealthConfig struct {
	// TotWindow is the total-failure window in raw bits (default 64).
	TotWindow int
	// DisableTot switches the tot test off (tests/benchmarks only).
	DisableTot bool
	// DisableStartup skips the AIS31 startup test (tests/benchmarks
	// only; AIS31 classes require it).
	DisableStartup bool
	// DisableMonitor switches the thermal monitor off.
	DisableMonitor bool
	// MonitorN is the monitor's accumulation length; keep it below
	// the model's independence threshold N* (default 64; paper:
	// N < 281 for r_N > 95%).
	MonitorN int
	// MonitorWindow is the number of s_N samples per variance window
	// (default 64).
	MonitorWindow int
	// MonitorEveryBits is the raw-bit cadence between s_N samples
	// (default 1024): the duty cycle of the embedded counter.
	MonitorEveryBits int
	// MonitorSubdivide is the monitor counter's TDC sub-period
	// resolution (default 64).
	MonitorSubdivide int
	// RefSigmaN2 overrides the monitor's calibrated reference σ²_N;
	// 0 derives it from the source model (relative σ²_N at MonitorN
	// plus the counter quantization floor).
	RefSigmaN2 float64
	// RecalibrateBackoff is the serve-mode delay between failed
	// recalibration attempts (default 250ms).
	RecalibrateBackoff time.Duration
	// AssessBits is the raw-bit sample size of the periodic
	// SP 800-90B assessment (default 65536; minimum sp90b.MinBits).
	AssessBits int
	// AssessEveryBits is the raw-bit cadence between assessments
	// (default 2^20): after each completed assessment the shard lets
	// this many raw bits pass before collecting the next sample. The
	// collector only copies bits the shard generates anyway, so
	// assessment never perturbs the output stream — only the CPU duty
	// cycle depends on the cadence.
	AssessEveryBits int
	// DisableAssess switches the periodic assessment off.
	DisableAssess bool
	// AssessMinEntropy quarantines the shard when an assessment's
	// suite min-entropy falls below it, like a tot or thermal alarm
	// (ReasonLowEntropy). 0 (the default) monitors only: reports and
	// gauges are published, no alarm. The right threshold depends on
	// the operating point: black-box bounds on the calibrated model at
	// its honest divider sit around 0.75–1 bit (the compression
	// estimator's conservatism sets the floor), so cmd/trngd defaults
	// to 0.3 — far below any healthy assessment, far above a degraded
	// source.
	AssessMinEntropy float64
	// StreamWindow, when > 0, turns on continuous streaming
	// surveillance (sp90b/stream): every raw chunk is additionally fed
	// into a sliding-window tracker running the cheap half of the
	// estimator suite (MCV, Markov and the four predictors) at O(1)
	// amortized cost per bit over the last StreamWindow raw bits. The
	// tracker is passive like the batch collector — the output stream
	// is bit-identical with streaming on or off — but it publishes a
	// LIVE min-entropy bound (Shard.LiveAssessment) that moves every
	// chunk instead of every AssessEveryBits. Minimum sp90b.MinBits;
	// 0 (the default) disables streaming (it costs CPU per raw bit, so
	// the library leaves it to the deployment — cmd/trngd enables it
	// by default).
	StreamWindow int
	// StreamPanes is the number of staggered predictor panes (default
	// 4 when streaming is on). It must divide StreamWindow; predictor
	// estimates refresh every StreamWindow/StreamPanes bits.
	StreamPanes int
	// StreamMinEntropy is the live low-watermark: a live suite minimum
	// below it quarantines the shard MID-window (ReasonLiveEntropy),
	// without waiting for the next batch sample boundary. 0 monitors
	// only, like AssessMinEntropy.
	StreamMinEntropy float64
}

// withDefaults fills zero fields.
func (h HealthConfig) withDefaults() HealthConfig {
	if h.TotWindow == 0 {
		h.TotWindow = 64
	}
	if h.MonitorN == 0 {
		h.MonitorN = 64
	}
	if h.MonitorWindow == 0 {
		h.MonitorWindow = 64
	}
	if h.MonitorEveryBits == 0 {
		h.MonitorEveryBits = 1024
	}
	if h.MonitorSubdivide == 0 {
		h.MonitorSubdivide = 64
	}
	if h.RecalibrateBackoff == 0 {
		h.RecalibrateBackoff = 250 * time.Millisecond
	}
	if h.AssessBits == 0 {
		h.AssessBits = 1 << 16
	}
	if h.AssessEveryBits == 0 {
		h.AssessEveryBits = 1 << 20
	}
	if h.StreamWindow > 0 && h.StreamPanes == 0 {
		h.StreamPanes = 4
	}
	return h
}

// PostOp is one post-processing stage kind.
type PostOp int

// Post-processing operations (see internal/postproc).
const (
	// PostXOR is k:1 XOR decimation.
	PostXOR PostOp = iota
	// PostVonNeumann is the von Neumann corrector.
	PostVonNeumann
)

// PostStage is one element of a shard's post-processing chain, applied
// in order to each raw chunk.
type PostStage struct {
	Op PostOp
	// K is the XOR decimation factor (PostXOR only).
	K int
}

// Config assembles a Pool.
type Config struct {
	// Shards is the number of independent generator lanes
	// (default 4).
	Shards int
	// Seed is the pool root seed; every shard and epoch derives its
	// private seeds from it via engine.DeriveSeed, so pool output is
	// reproducible from (Config, Seed) alone.
	Seed uint64
	// Source describes the per-shard entropy source.
	Source SourceConfig
	// Post is the per-shard post-processing chain (applied chunk-
	// local, in order). Empty = raw gated bits.
	Post []PostStage
	// Health parameterizes the embedded tests.
	Health HealthConfig
	// Jobs is the engine worker-pool width for Fill and construction
	// (0 = NumCPU, 1 = sequential; output identical either way).
	Jobs int
	// BufBytes is the per-shard serve-mode ring capacity (default
	// 64 KiB, rounded up to a power of two, minimum one fill block).
	// Tapped pools allocate no ring.
	BufBytes int
	// SeedTapBytes, when > 0, gives every shard a raw seed tap of this
	// capacity (rounded up to a power of two): a passive mirror of the
	// healthy-epoch raw bits, packed MSB-first, that SeedSource drains
	// through a vetted conditioner into DRBG seed material. The tap
	// never changes the output stream, but its contents are raw-stream
	// material, so a tapped pool serves DRBG output and never the raw
	// stream: it has no output rings and ReadBuffered returns
	// ErrNotServing. In serve mode its producers gate raw chunks
	// without a raw consumer, so the embedded tests, assessments and
	// the tap run on every tapped bit, and they rest once the tap is
	// full, assessed and one StreamWindow of raw bits past its newest
	// chunk (see Serve). Requires assessment
	// (DisableAssess must be false): the assessed min-entropy is the
	// seed accounting input.
	SeedTapBytes int

	// Sink, when non-nil, receives the pool's observability events
	// (shard lifecycle, alarms with the triggering statistic,
	// quarantines, DRBG lane events, seed draws — see internal/obs).
	// Emission is passive: sinks observe state transitions that happen
	// anyway, so the output stream is bit-identical with the sink on or
	// off; a nil sink costs one predictable branch per event site.
	Sink obs.Sink

	// NewSource, when non-nil, replaces the Source-derived generator
	// factory. It receives the shard index, the calibration epoch and
	// the derived seed. Tests and attack experiments use it to script
	// source behaviour per shard and epoch.
	NewSource func(shard, epoch int, seed uint64) (RawSource, error)
	// NewMonitorPair, when non-nil, replaces the default thermal-
	// monitor oscillator pair factory (same hook contract). The
	// default builds a pair of Source.Model rings with a 0.2%
	// mismatch — the simulation stand-in for tapping the physical
	// rings with the embedded counter.
	NewMonitorPair func(shard, epoch int, seed uint64) (*osc.Pair, error)
}

// Pool is a sharded, health-gated entropy pool.
type Pool struct {
	cfg    Config
	shards []*Shard

	mu sync.Mutex // serializes Fill/Read/Recalibrate

	// Serve-mode state. stop cancels the current session; finish is
	// the session's idempotent shutdown (waits the producers out and
	// reopens batch mode), shared by Stop and the context watcher.
	serving atomic.Bool
	stop    context.CancelFunc
	finish  func()
	consMu  sync.Mutex // serializes buffered consumers

	// Persistent output rotation, shared by the batch walk (under mu)
	// and the buffered consumer (under consMu; the modes are mutually
	// exclusive): the shard whose block is currently being emitted and
	// the bytes left of that block. Persistence is what makes the pool
	// a single continuous stream across calls and across modes.
	rrShard  int
	rrLeft   int
	bytesOut atomic.Uint64
}

// New builds the pool and calibrates every shard in parallel (each
// runs its startup test). Shards whose startup test fails begin life
// quarantined; New fails only when the configuration itself is
// unusable or when NO shard could be admitted.
func New(cfg Config) (*Pool, error) {
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("entropyd: shards = %d must be >= 1", cfg.Shards)
	}
	cfg.Source = cfg.Source.withDefaults()
	if cfg.NewSource == nil {
		if err := cfg.Source.validate(); err != nil {
			return nil, err
		}
	}
	cfg.Health = cfg.Health.withDefaults()
	if !cfg.Health.DisableAssess {
		if cfg.Health.AssessBits < sp90b.MinBits {
			return nil, fmt.Errorf("entropyd: assessment sample %d below sp90b.MinBits (%d)",
				cfg.Health.AssessBits, sp90b.MinBits)
		}
		if cfg.Health.AssessMinEntropy < 0 || cfg.Health.AssessMinEntropy >= 1 {
			return nil, fmt.Errorf("entropyd: assessment threshold %g out of [0, 1)", cfg.Health.AssessMinEntropy)
		}
	}
	if cfg.Health.StreamWindow > 0 {
		if cfg.Health.StreamWindow < sp90b.MinBits {
			return nil, fmt.Errorf("entropyd: streaming window %d below sp90b.MinBits (%d)",
				cfg.Health.StreamWindow, sp90b.MinBits)
		}
		if cfg.Health.StreamPanes < 1 || cfg.Health.StreamWindow%cfg.Health.StreamPanes != 0 {
			return nil, fmt.Errorf("entropyd: streaming panes %d must be >= 1 and divide the window (%d)",
				cfg.Health.StreamPanes, cfg.Health.StreamWindow)
		}
		if cfg.Health.StreamMinEntropy < 0 || cfg.Health.StreamMinEntropy >= 1 {
			return nil, fmt.Errorf("entropyd: streaming threshold %g out of [0, 1)", cfg.Health.StreamMinEntropy)
		}
	}
	for _, st := range cfg.Post {
		switch st.Op {
		case PostXOR:
			if st.K < 1 || st.K > rawChunk {
				return nil, fmt.Errorf("entropyd: xor decimation factor %d out of [1, %d]", st.K, rawChunk)
			}
		case PostVonNeumann:
		default:
			return nil, fmt.Errorf("entropyd: unknown post-processing op %d", int(st.Op))
		}
	}
	if cfg.BufBytes == 0 {
		cfg.BufBytes = 1 << 16
	}
	if cfg.BufBytes < fillBlock {
		return nil, fmt.Errorf("entropyd: ring capacity %d below one fill block (%d)", cfg.BufBytes, fillBlock)
	}
	if cfg.SeedTapBytes > 0 {
		if cfg.Health.DisableAssess {
			return nil, fmt.Errorf("entropyd: the seed tap needs the SP 800-90B assessment (it is the entropy accounting input); enable assessment or disable the tap")
		}
		if cfg.SeedTapBytes < rawChunk/8 {
			return nil, fmt.Errorf("entropyd: seed tap capacity %d below one packed raw chunk (%d)", cfg.SeedTapBytes, rawChunk/8)
		}
	}

	p := &Pool{cfg: cfg, rrLeft: fillBlock}
	p.shards = make([]*Shard, cfg.Shards)
	for i := range p.shards {
		p.shards[i] = &Shard{
			index: i,
			pool:  p,
			seed:  engine.DeriveSeed(cfg.Seed, uint64(i)),
		}
		if cfg.SeedTapBytes > 0 {
			p.shards[i].tap = newRing(cfg.SeedTapBytes)
		} else {
			p.shards[i].ring = newRing(cfg.BufBytes)
		}
	}
	err := engine.Run(context.Background(), cfg.Shards, func(_ context.Context, i int) error {
		return p.shards[i].calibrate()
	}, engine.Jobs(cfg.Jobs))
	if err != nil {
		return nil, err
	}
	if p.Healthy() == 0 {
		return nil, fmt.Errorf("entropyd: no shard passed its startup test (%w)", ErrStarved)
	}
	return p, nil
}

// emit forwards an observability event to the configured sink. The
// nil check is the entire cost when observability is off.
func (p *Pool) emit(e obs.Event) {
	if p.cfg.Sink != nil {
		p.cfg.Sink.Emit(e)
	}
}

// newSource calls the configured source factory.
func (p *Pool) newSource(shard, epoch int, seed uint64) (RawSource, error) {
	if p.cfg.NewSource != nil {
		return p.cfg.NewSource(shard, epoch, seed)
	}
	return p.cfg.Source.newSource(seed)
}

// newMonitorPair calls the configured monitor-pair factory.
func (p *Pool) newMonitorPair(shard, epoch int, seed uint64) (*osc.Pair, error) {
	if p.cfg.NewMonitorPair != nil {
		return p.cfg.NewMonitorPair(shard, epoch, seed)
	}
	return osc.NewPair(p.cfg.Source.Model, 2e-3, osc.Options{Seed: seed})
}

// NumShards returns the configured shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// Shard returns shard i (for status inspection and attack hooks).
func (p *Pool) Shard(i int) *Shard { return p.shards[i] }

// Healthy counts the shards currently admitted.
func (p *Pool) Healthy() int {
	n := 0
	for _, s := range p.shards {
		if s.State() == StateHealthy {
			n++
		}
	}
	return n
}

// InjectAlarm forces shard i into quarantine at its next production
// step (an operator drill / test hook; races cleanly with serving).
// It refuses shards that are not currently healthy: an alarm injected
// into a quarantined or recalibrating shard would be silently
// discarded by the next calibration, which is worse than an error.
func (p *Pool) InjectAlarm(i int) error {
	if i < 0 || i >= len(p.shards) {
		return fmt.Errorf("entropyd: shard %d out of range [0, %d)", i, len(p.shards))
	}
	if st := p.shards[i].State(); st != StateHealthy {
		return fmt.Errorf("entropyd: shard %d is %v, not healthy", i, st)
	}
	p.shards[i].injected.Store(true)
	// The marker is the detection-latency clock start: the incident
	// engine pairs it with the shard's quarantine.
	p.emit(obs.Event{Type: obs.TypeInjectionMarker, Shard: i, Lane: obs.Any,
		Epoch: p.shards[i].Epoch(), Detail: "InjectAlarm"})
	return nil
}

// span is a half-open byte range of a fill destination.
type span struct{ off, n int }

// Fill produces len(dst) gated bytes across the healthy shards and is
// the deterministic batch fast path: the pool's PERSISTENT round-robin
// rotation assigns blocks of fillBlock bytes to the healthy shards,
// and the per-shard shares are generated in parallel (one engine task
// per shard, Config.Jobs wide). Because every shard's stream is
// private and the rotation is a pure function of the request sizes and
// the healthy set, the output is bit-identical for every worker count
// (jobs = 1 vs NumCPU) and for every request chunking — Fill(300) then
// Fill(724) yields the same 1024 bytes as one Fill(1024), and the same
// stream ReadBuffered serves in daemon mode.
//
// Shards that alarm mid-fill are quarantined and their unproduced
// blocks are redistributed to the survivors, so service degrades
// without failing. Returns the bytes written; n < len(dst) (with
// ErrStarved) happens only when every shard is quarantined before the
// buffer is complete, in which case the filled prefix is compacted to
// dst[:n].
func (p *Pool) Fill(dst []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.serving.Load() {
		return 0, errors.New("entropyd: Fill is unavailable while serving (use ReadBuffered)")
	}
	// Also exclude any buffered consumer still draining out of a
	// just-stopped serve session: a ReadBuffered that was past its
	// serving check when Stop() flipped the flag may hold the
	// rotation cursor for one more poll interval, and the cursor must
	// only ever have one writer.
	p.consMu.Lock()
	defer p.consMu.Unlock()
	n, err := p.fillLocked(dst)
	p.bytesOut.Add(uint64(n))
	return n, err
}

// fillLocked runs fill rounds until the destination is complete or the
// pool starves. Round 0 walks the pool's persistent rotation; later
// rounds (only reached when a shard alarmed) redistribute the
// surrendered spans over the surviving shards with a fresh block walk.
func (p *Pool) fillLocked(dst []byte) (int, error) {
	if len(dst) == 0 {
		return 0, nil
	}
	pending := []span{{0, len(dst)}}
	for round := 0; len(pending) > 0; round++ {
		var admitted []*Shard
		for _, s := range p.shards {
			if s.State() == StateHealthy {
				admitted = append(admitted, s)
			}
		}
		if len(admitted) == 0 {
			n := compact(dst, pending)
			return n, ErrStarved
		}
		perShard := make([][]span, len(p.shards))
		if round == 0 {
			p.walkRotation(pending, perShard)
		} else {
			walkFresh(pending, admitted, perShard)
		}
		leftover := make([][]span, len(admitted))
		err := engine.Run(context.Background(), len(admitted), func(_ context.Context, j int) error {
			sh := admitted[j]
			leftover[j] = produceSpans(dst, sh, perShard[sh.index])
			return nil
		}, engine.Jobs(p.cfg.Jobs))
		if err != nil {
			return 0, err
		}
		pending = pending[:0]
		for _, l := range leftover {
			pending = append(pending, l...)
		}
		sortSpans(pending)
	}
	return len(dst), nil
}

// walkRotation advances the pool's persistent rotation cursor across
// the given spans, appending each shard's assigned sub-spans to
// perShard (indexed by shard). The caller guarantees at least one
// healthy shard.
func (p *Pool) walkRotation(spans []span, perShard [][]span) {
	for _, sp := range spans {
		off, n := sp.off, sp.n
		for n > 0 {
			s := p.shards[p.rrShard]
			if s.State() != StateHealthy || p.rrLeft == 0 {
				if !p.nextHealthy(s.State() != StateHealthy) {
					return
				}
				continue
			}
			t := n
			if t > p.rrLeft {
				t = p.rrLeft
			}
			perShard[p.rrShard] = append(perShard[p.rrShard], span{off, t})
			off += t
			n -= t
			p.rrLeft -= t
		}
	}
}

// walkFresh assigns spans to the admitted shards with a fresh block
// rotation (redistribution rounds after an alarm).
func walkFresh(spans []span, admitted []*Shard, perShard [][]span) {
	j, left := 0, fillBlock
	for _, sp := range spans {
		off, n := sp.off, sp.n
		for n > 0 {
			t := n
			if t > left {
				t = left
			}
			perShard[admitted[j].index] = append(perShard[admitted[j].index], span{off, t})
			off += t
			n -= t
			left -= t
			if left == 0 {
				j = (j + 1) % len(admitted)
				left = fillBlock
			}
		}
	}
}

// produceSpans generates sh's assigned spans in order. On a mid-span
// alarm the WHOLE current span plus everything after it is returned as
// leftover: bytes gated shortly before an alarm are suspect, so the
// partial span is regenerated by a surviving shard (the batch analogue
// of the serve-mode ring drain).
func produceSpans(dst []byte, sh *Shard, spans []span) []span {
	for i, sp := range spans {
		if n := sh.produce(dst[sp.off : sp.off+sp.n]); n < sp.n {
			return append([]span(nil), spans[i:]...)
		}
	}
	return nil
}

// sortSpans orders spans by offset (insertion sort: the lists are
// short — at most one run per alarmed shard).
func sortSpans(s []span) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].off < s[j-1].off; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// compact moves the filled bytes of dst to the front, skipping the
// unfilled spans, and returns the filled count.
func compact(dst []byte, unfilled []span) int {
	n := 0
	pos := 0
	for _, sp := range unfilled {
		n += copy(dst[n:], dst[pos:sp.off])
		pos = sp.off + sp.n
	}
	n += copy(dst[n:], dst[pos:])
	return n
}

// Read implements io.Reader over Fill: it fills p completely in the
// healthy case, and returns the compacted partial fill (n > 0, nil
// error) when the pool starved mid-way — the starvation error then
// surfaces on the next call, per io.Reader convention.
func (p *Pool) Read(q []byte) (int, error) {
	if len(q) == 0 {
		return 0, nil
	}
	n, err := p.Fill(q)
	if n > 0 {
		return n, nil
	}
	return n, err
}

// Recalibrate attempts to heal every quarantined shard (in parallel on
// the engine pool) and returns how many came back healthy. It is the
// batch-mode counterpart of the serve-mode self-healing loop. The
// context bounds the attempt: shards not yet re-admitted when it is
// cancelled simply stay quarantined.
func (p *Pool) Recalibrate(ctx context.Context) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.serving.Load() {
		return 0 // serve mode heals itself
	}
	var quarantined []*Shard
	for _, s := range p.shards {
		if s.State() == StateQuarantined {
			quarantined = append(quarantined, s)
		}
	}
	if len(quarantined) == 0 {
		return 0
	}
	healed := make([]bool, len(quarantined))
	_ = engine.Run(ctx, len(quarantined), func(_ context.Context, i int) error {
		healed[i] = quarantined[i].recalibrate()
		return nil
	}, engine.Jobs(p.cfg.Jobs))
	n := 0
	for _, h := range healed {
		if h {
			n++
		}
	}
	return n
}

// ShardStatus is a point-in-time snapshot of one shard's health.
type ShardStatus struct {
	Index           int    `json:"index"`
	State           string `json:"state"`
	Reason          string `json:"reason"`
	Epoch           int64  `json:"epoch"`
	BytesOut        uint64 `json:"bytes_out"`
	RawBits         uint64 `json:"raw_bits"`
	TotAlarms       uint64 `json:"tot_alarms"`
	MonitorLow      uint64 `json:"monitor_low_alarms"`
	MonitorHigh     uint64 `json:"monitor_high_alarms"`
	StartupFailures uint64 `json:"startup_failures"`
	Quarantines     uint64 `json:"quarantines"`
	DrainedBytes    uint64 `json:"drained_bytes"`
	Buffered        int    `json:"buffered"`
	// AssessRuns counts completed SP 800-90B raw-bit assessments;
	// AssessMinEntropy is the latest suite minimum (meaningful only
	// when AssessRuns > 0) and AssessAlarms the low-entropy
	// quarantines it caused. AssessAgeSeconds is the wall-clock age of
	// the latest report (-1 before the first one) and AssessEpoch the
	// calibration epoch it describes — together with State these are
	// the reseed-gating inputs: a shard seeds DRBGs only while
	// healthy with a current-epoch assessment.
	AssessRuns       uint64  `json:"assess_runs"`
	AssessAlarms     uint64  `json:"assess_alarms"`
	AssessMinEntropy float64 `json:"assess_min_entropy"`
	AssessAgeSeconds float64 `json:"assess_age_seconds"`
	AssessEpoch      int64   `json:"assess_epoch"`
	// Streaming-surveillance snapshot (HealthConfig.StreamWindow > 0):
	// LiveMinEntropy is the latest live suite minimum over the sliding
	// window (meaningful only when LiveAgeSeconds >= 0; -1 age means no
	// live report yet, e.g. streaming off or window not yet full),
	// LiveEpoch the calibration epoch it describes, LiveAlarms the
	// mid-window watermark quarantines, and StreamNsPerBit the mean
	// per-raw-bit surveillance cost.
	LiveAlarms     uint64  `json:"live_alarms"`
	LiveMinEntropy float64 `json:"live_min_entropy"`
	LiveAgeSeconds float64 `json:"live_age_seconds"`
	LiveEpoch      int64   `json:"live_epoch"`
	StreamNsPerBit float64 `json:"stream_ns_per_bit"`
	// Seed-tap bookkeeping (zero when the tap is disabled): raw bytes
	// mirrored into the tap, dropped on a full tap, and consumed by
	// seed draws. A serving tapped shard rests once its tap is full
	// and covered by one live window, so TapDropped counts the
	// lookahead chunks gated behind a full tap (plus any gated before
	// the epoch's first assessment, and batch-mode Fill chunks).
	TapBytes      uint64 `json:"tap_bytes"`
	TapDropped    uint64 `json:"tap_dropped"`
	SeedBytesUsed uint64 `json:"seed_bytes_used"`
	// RestSeconds is the wall time the serve-mode producer spent
	// resting on a saturated buffer (a full ring, or a full, assessed
	// and surveyed tap) or, on a tapped shard, waiting for a survey
	// slot: the time pacing kept the shard idle.
	RestSeconds float64 `json:"rest_seconds"`
}

// Stats is a point-in-time snapshot of the pool. BytesServed counts
// bytes delivered to consumers through any mode (Fill, Read,
// ReadBuffered); the per-shard BytesOut counters additionally include
// produced-but-undelivered bytes sitting in or drained from rings. A
// tapped pool's serve-mode producers pack no bytes, so they add
// nothing to BytesOut.
type Stats struct {
	Shards      []ShardStatus `json:"shards"`
	Healthy     int           `json:"healthy"`
	BytesServed uint64        `json:"bytes_served"`
}

// Stats snapshots every shard's counters (atomics: safe while
// serving).
func (p *Pool) Stats() Stats {
	st := Stats{Shards: make([]ShardStatus, len(p.shards)), BytesServed: p.bytesOut.Load()}
	for i, s := range p.shards {
		state := s.State()
		if state == StateHealthy {
			st.Healthy++
		}
		st.Shards[i] = ShardStatus{
			Index:            i,
			State:            state.String(),
			Reason:           s.LastReason().String(),
			Epoch:            s.Epoch(),
			BytesOut:         s.bytesOut.Load(),
			RawBits:          s.rawBits.Load(),
			TotAlarms:        s.totAlarms.Load(),
			MonitorLow:       s.monLow.Load(),
			MonitorHigh:      s.monHigh.Load(),
			StartupFailures:  s.startupFails.Load(),
			Quarantines:      s.quarantines.Load(),
			DrainedBytes:     s.drainedBytes.Load(),
			AssessRuns:       s.assessRuns.Load(),
			AssessAlarms:     s.assessAlarms.Load(),
			AssessAgeSeconds: -1,
			LiveAlarms:       s.liveAlarms.Load(),
			LiveAgeSeconds:   -1,
			TapBytes:         s.tapBytes.Load(),
			TapDropped:       s.tapDropped.Load(),
			SeedBytesUsed:    s.seedBytes.Load(),
			RestSeconds:      time.Duration(s.restNanos.Load()).Seconds(),
		}
		if s.ring != nil {
			st.Shards[i].Buffered = s.ring.buffered()
		}
		if a := s.LastAssessment(); a != nil {
			st.Shards[i].AssessMinEntropy = a.Report.MinEntropy
			st.Shards[i].AssessAgeSeconds = time.Since(a.At).Seconds()
			st.Shards[i].AssessEpoch = a.Epoch
		}
		if a := s.LiveAssessment(); a != nil {
			st.Shards[i].LiveMinEntropy = a.Report.MinEntropy
			st.Shards[i].LiveAgeSeconds = time.Since(a.At).Seconds()
			st.Shards[i].LiveEpoch = a.Epoch
		}
		if h := s.streamCost; h != nil && h.Count() > 0 {
			st.Shards[i].StreamNsPerBit = float64(h.Sum().Nanoseconds()) / float64(h.Count())
		}
	}
	return st
}
