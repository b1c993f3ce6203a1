package entropyd

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ais31"
	"repro/internal/engine"
	"repro/internal/loadstat"
	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/onlinetest"
	"repro/internal/osc"
	"repro/internal/postproc"
	"repro/internal/sp90b"
	"repro/internal/sp90b/stream"
)

// State is a shard's position in the health state machine (see the
// package comment for the full transition diagram).
type State int32

// Shard states.
const (
	// StateStartup: the shard is calibrating (startup test running);
	// no output is admitted yet.
	StateStartup State = iota
	// StateHealthy: all embedded tests pass; output is gated into the
	// pool.
	StateHealthy
	// StateQuarantined: an embedded test alarmed (or startup failed);
	// output is discarded until a recalibration succeeds.
	StateQuarantined
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateStartup:
		return "startup"
	case StateHealthy:
		return "healthy"
	case StateQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Reason records why a shard was last quarantined.
type Reason int32

// Quarantine reasons.
const (
	ReasonNone Reason = iota
	// ReasonStartup: the AIS31 startup test (T1–T4 on the first 20000
	// gated bits of the epoch) failed.
	ReasonStartup
	// ReasonTot: the AIS31 total-failure test fired (window of
	// identical raw bits — dead source).
	ReasonTot
	// ReasonThermalLow: the paper's thermal monitor measured the
	// small-N jitter variance below its calibrated bound — entropy
	// loss (cooling, locking, injection).
	ReasonThermalLow
	// ReasonThermalHigh: variance above the high bound — injected
	// beat or measurement fault.
	ReasonThermalHigh
	// ReasonInjected: an operator/test forced the quarantine
	// (Pool.InjectAlarm).
	ReasonInjected
	// ReasonLowEntropy: the periodic SP 800-90B assessment's suite
	// min-entropy fell below HealthConfig.AssessMinEntropy.
	ReasonLowEntropy
	// ReasonLiveEntropy: the streaming surveillance tracker's live
	// suite min-entropy fell below HealthConfig.StreamMinEntropy — the
	// mid-window low-watermark, fired without waiting for a batch
	// sample boundary.
	ReasonLiveEntropy
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonStartup:
		return "startup"
	case ReasonTot:
		return "tot"
	case ReasonThermalLow:
		return "thermal-low"
	case ReasonThermalHigh:
		return "thermal-high"
	case ReasonInjected:
		return "injected"
	case ReasonLowEntropy:
		return "low-entropy"
	case ReasonLiveEntropy:
		return "live-low-entropy"
	default:
		return fmt.Sprintf("Reason(%d)", int32(r))
	}
}

// startupBits is the AIS31 startup-test sample size (T1–T4 need 20000
// bits).
const startupBits = 20000

// rawChunk is the raw-bit batch a shard pulls from its source per
// gating step: large enough to amortize per-chunk bookkeeping, small
// enough that an alarm stops output within a fraction of a block.
const rawChunk = 512

// maxDryChunks bounds how many consecutive raw chunks may yield zero
// gated bits before the shard declares the conditioner starved (e.g. a
// von Neumann corrector fed a stuck source with the tot test disabled)
// and quarantines instead of spinning. A live source makes even a
// short dry streak astronomically unlikely.
const maxDryChunks = 1024

// Shard is one independent generator lane of a Pool: its own entropy
// source, post-processing chain, embedded tests and, on an untapped
// pool, output ring. The mutable generation state (source, tests, bit
// buffers) is owned by exactly one goroutine at a time — the engine
// task filling it, or its producer goroutine in serve mode. Everything
// the rest of the system reads (state, counters) is atomic.
type Shard struct {
	index int
	pool  *Pool
	seed  uint64 // shard root seed: engine.DeriveSeed(pool seed, index)

	// Owner-goroutine generation state.
	src          RawSource
	tot          *ais31.TotTest
	mon          *onlinetest.Monitor
	monCounter   *measure.Counter
	monPair      *osc.Pair
	monPrevQ     int64
	monScale     float64
	monCountdown int
	bitbuf       []byte // gated bits awaiting byte packing
	bitpos       int    // consumed prefix of bitbuf
	raw          []byte // raw chunk scratch

	// Raw-bit assessment collector (owner goroutine): when armed
	// (assessWait == 0) raw chunks are copied into assessBuf until an
	// AssessBits sample is complete and assessed.
	assessBuf  []byte
	assessWait int // raw bits left before the next collection starts

	// Streaming surveillance tracker (owner goroutine; nil when
	// HealthConfig.StreamWindow == 0). Like the batch collector it is
	// passive: it reads raw chunks the shard generates anyway.
	tracker *stream.Tracker

	// alarmStat is the statistic that triggered the pending alarm
	// (owner goroutine; set at the test site that raised the reason,
	// consumed by the quarantine event): the tot run length, the
	// thermal monitor's windowed s_N variance, or the assessed suite
	// min-entropy.
	alarmStat float64

	// Serve-mode output buffer; nil on a tapped pool, which serves
	// DRBG output and never the raw stream.
	ring *ring

	// Raw seed tap (Config.SeedTapBytes > 0): a second SPSC ring the
	// owner goroutine mirrors packed raw chunks into while Healthy,
	// drained by SeedSource draws on the consumer side. Like the
	// assessment collector it is passive — it copies bits the shard
	// generates anyway, so enabling it never changes the output
	// stream. tapScratch is the pack buffer.
	tap        *ring
	tapScratch []byte

	// Owner-goroutine production counters: sinceTap counts the raw
	// bits gated since a chunk last entered the seed tap (the pacing
	// lookahead), and dry the consecutive chunks that gated no bits
	// (the maxDryChunks rule).
	sinceTap int
	dry      int

	// Published state (atomics; readable from any goroutine).
	state        atomic.Int32
	reason       atomic.Int32
	epoch        atomic.Int64
	injected     atomic.Bool
	bytesOut     atomic.Uint64
	rawBits      atomic.Uint64
	totAlarms    atomic.Uint64
	monLow       atomic.Uint64
	monHigh      atomic.Uint64
	startupFails atomic.Uint64
	quarantines  atomic.Uint64
	drainedBytes atomic.Uint64
	assessRuns   atomic.Uint64
	assessAlarms atomic.Uint64
	lastAssess   atomic.Pointer[Assessment]
	liveAlarms   atomic.Uint64
	liveAssess   atomic.Pointer[Assessment]
	streamCost   *loadstat.Histogram // per-raw-bit surveillance cost; nil when streaming is off
	tapBytes     atomic.Uint64
	tapDropped   atomic.Uint64
	seedBytes    atomic.Uint64
	restNanos    atomic.Uint64 // wall time the serve-mode producer spent resting
}

// Assessment is one completed SP 800-90B raw-bit assessment of a
// shard, tagged with when it ran.
type Assessment struct {
	// Shard is the shard index.
	Shard int `json:"shard"`
	// Epoch is the calibration epoch the sample was collected in.
	Epoch int64 `json:"epoch"`
	// RawBits is the shard's raw-bit counter when the sample
	// completed.
	RawBits uint64 `json:"raw_bits"`
	// At is the wall-clock completion time (status/metrics only; no
	// deterministic path reads it).
	At time.Time `json:"at"`
	// Report is the estimator suite verdict.
	Report sp90b.Report `json:"report"`
}

// LastAssessment returns the most recent completed assessment, nil
// before the first one. Safe from any goroutine; reports survive
// recalibration (the epoch tag tells readers which calibration they
// describe).
func (s *Shard) LastAssessment() *Assessment { return s.lastAssess.Load() }

// LiveAssessment returns the most recent streaming-surveillance report
// — the six cheap estimators over the sliding StreamWindow, refreshed
// every raw chunk — or nil when streaming is off or the window has not
// filled yet this epoch. Safe from any goroutine. Unlike the batch
// LastAssessment it does NOT survive recalibration: a new epoch is a
// different source build, so its window starts empty.
func (s *Shard) LiveAssessment() *Assessment { return s.liveAssess.Load() }

// StreamCost snapshots the per-raw-bit streaming surveillance cost
// histogram (each sample is one chunk's elapsed time divided by the
// chunk's bits), nil when streaming is off. Safe from any goroutine.
func (s *Shard) StreamCost() *loadstat.Snapshot {
	if s.streamCost == nil {
		return nil
	}
	return s.streamCost.Snapshot()
}

// Index returns the shard's position in the pool.
func (s *Shard) Index() int { return s.index }

// State returns the current health state.
func (s *Shard) State() State { return State(s.state.Load()) }

// LastReason returns the most recent quarantine reason.
func (s *Shard) LastReason() Reason { return Reason(s.reason.Load()) }

// Epoch returns the calibration epoch (0 at construction, +1 per
// recalibration attempt).
func (s *Shard) Epoch() int64 { return s.epoch.Load() }

// RawBits returns the raw bits gated through the health chain over the
// shard's lifetime (all epochs, whether or not they reached the ring).
// Attack experiments use it to place scenario onsets and measure
// detection latency on the raw-bit clock.
func (s *Shard) RawBits() uint64 { return s.rawBits.Load() }

// MonitorPair exposes the oscillator pair behind the shard's thermal
// monitor, nil when the monitor is disabled. It exists for attack
// experiments (arming modulators before the pool starts producing);
// mutating it while the shard is producing is a data race.
func (s *Shard) MonitorPair() *osc.Pair { return s.monPair }

// Source exposes the current entropy source instance (same caveat as
// MonitorPair).
func (s *Shard) Source() RawSource { return s.src }

// calibrate (re)builds the shard's generation state for the current
// epoch and runs the AIS31 startup test on it. On success the shard is
// Healthy; on a statistical failure it is Quarantined with
// ReasonStartup. A non-nil error means the configuration itself is
// unusable (only possible at construction, where Pool.New aborts).
func (s *Shard) calibrate() error {
	s.state.Store(int32(StateStartup))
	s.injected.Store(false)
	s.bitbuf, s.bitpos = s.bitbuf[:0], 0
	s.assessBuf, s.assessWait = s.assessBuf[:0], 0
	s.sinceTap, s.dry = 0, 0
	if s.raw == nil {
		s.raw = make([]byte, rawChunk)
	}
	epoch := uint64(s.epoch.Load())
	h := &s.pool.cfg.Health

	if h.StreamWindow > 0 {
		if s.tracker == nil {
			tr, err := stream.New(stream.Config{Window: h.StreamWindow, Panes: h.StreamPanes})
			if err != nil {
				return err // unreachable: validated at construction
			}
			s.tracker = tr
			s.streamCost = loadstat.New()
		} else {
			// New epoch, new source build: the live window must not mix
			// bits across the rebuild.
			s.tracker.Reset()
		}
		s.liveAssess.Store(nil)
	}

	src, err := s.pool.newSource(s.index, int(epoch), engine.DeriveSeed(s.seed, 2*epoch))
	if err != nil {
		return err
	}
	s.src = src

	s.tot = nil
	if !h.DisableTot {
		t, err := ais31.NewTotTest(h.TotWindow)
		if err != nil {
			return err
		}
		s.tot = t
	}

	s.mon, s.monCounter, s.monPair = nil, nil, nil
	if !h.DisableMonitor {
		pair, err := s.pool.newMonitorPair(s.index, int(epoch), engine.DeriveSeed(s.seed, 2*epoch+1))
		if err != nil {
			return err
		}
		counter, err := measure.NewCounterConfig(pair, h.MonitorN, measure.Config{Subdivide: h.MonitorSubdivide})
		if err != nil {
			return err
		}
		ref := h.RefSigmaN2
		if ref == 0 {
			// Calibrate against the model: total σ²_N of the
			// RELATIVE jitter at the monitor's small N (thermal-
			// dominated below the corner — the regime the paper
			// prescribes), plus the dithered counter's quantization
			// floor.
			rel := pair.RelativeModel()
			ref = rel.SigmaN2(h.MonitorN) + counter.QuantizationFloor()
		}
		mon, err := onlinetest.New(onlinetest.Config{
			N:          h.MonitorN,
			Window:     h.MonitorWindow,
			RefSigmaN2: ref,
		})
		if err != nil {
			return err
		}
		s.mon = mon
		s.monCounter = counter
		s.monPair = pair
		s.monScale = counter.PeriodOsc1() / float64(counter.Subdivision())
		s.monPrevQ = counter.NextQ() // arm: first s_N needs a previous Q
		s.monCountdown = h.MonitorEveryBits
	}

	if !h.DisableStartup {
		// The startup test inspects the GATED (post-processed) bit
		// stream — the quality actually delivered — while the tot
		// test keeps watching the raw bits underneath. Startup bits
		// are discarded, per AIS31: no output before the test passes.
		bits := make([]byte, 0, startupBits)
		dry := 0
		for len(bits) < startupBits {
			gated, alarm := s.gateChunk()
			if alarm != ReasonNone {
				s.quarantine(alarm)
				return nil
			}
			if len(gated) == 0 {
				if dry++; dry >= maxDryChunks {
					s.quarantine(ReasonTot)
					return nil
				}
				continue
			}
			dry = 0
			bits = append(bits, gated...)
		}
		verdicts, pass, err := ais31.StartupTest(bits)
		if err != nil {
			return err
		}
		if !pass {
			s.startupFails.Add(1)
			var failed []string
			for _, v := range verdicts {
				if !v.Pass {
					failed = append(failed, v.Name)
				}
			}
			s.pool.emit(obs.Event{Type: obs.TypeStartupFail, Shard: s.index, Lane: obs.Any,
				Epoch: s.epoch.Load(), Value: float64(len(failed)), Detail: strings.Join(failed, ",")})
			s.quarantine(ReasonStartup)
			return nil
		}
	}

	s.reason.Store(int32(ReasonNone))
	s.state.Store(int32(StateHealthy))
	s.pool.emit(obs.Event{Type: obs.TypeStartupPass, Shard: s.index, Lane: obs.Any,
		Epoch: s.epoch.Load()})
	return nil
}

// recalibrate advances the epoch and re-runs calibration: the
// simulation analogue of power-cycling and re-admitting a quarantined
// source. Returns true when the shard came back Healthy.
func (s *Shard) recalibrate() bool {
	epoch := s.epoch.Add(1)
	s.pool.emit(obs.Event{Type: obs.TypeRecalibrate, Shard: s.index, Lane: obs.Any, Epoch: epoch})
	if err := s.calibrate(); err != nil {
		// Construction errors cannot normally happen after epoch 0
		// (same configuration); treat defensively as a failed
		// startup so the shard stays out of service.
		s.startupFails.Add(1)
		s.quarantine(ReasonStartup)
		return false
	}
	if s.State() == StateHealthy {
		s.pool.emit(obs.Event{Type: obs.TypeHeal, Shard: s.index, Lane: obs.Any, Epoch: epoch})
		return true
	}
	return false
}

// quarantine moves the shard out of service: records the reason,
// discards gated-but-unpacked bits and asks the ring (if any) to drop
// everything undelivered ("drain").
func (s *Shard) quarantine(r Reason) {
	s.reason.Store(int32(r))
	s.state.Store(int32(StateQuarantined))
	s.quarantines.Add(1)
	stat := s.alarmStat
	s.alarmStat = 0
	switch r {
	case ReasonTot:
		s.totAlarms.Add(1)
	case ReasonThermalLow:
		s.monLow.Add(1)
	case ReasonThermalHigh:
		s.monHigh.Add(1)
	case ReasonLowEntropy:
		s.assessAlarms.Add(1)
	case ReasonLiveEntropy:
		s.liveAlarms.Add(1)
	}
	switch r {
	case ReasonTot, ReasonThermalLow, ReasonThermalHigh, ReasonLowEntropy, ReasonLiveEntropy:
		// Embedded-test alarms get their own event carrying the
		// triggering statistic, ahead of the quarantine they cause.
		s.pool.emit(obs.Event{Type: obs.TypeAlarm, Shard: s.index, Lane: obs.Any,
			Epoch: s.epoch.Load(), Reason: r.String(), Value: stat})
	}
	s.bitbuf, s.bitpos = s.bitbuf[:0], 0
	drained := 0
	if s.ring != nil {
		drained = s.ring.drain()
		s.drainedBytes.Add(uint64(drained))
	}
	s.pool.emit(obs.Event{Type: obs.TypeQuarantine, Shard: s.index, Lane: obs.Any,
		Epoch: s.epoch.Load(), Reason: r.String(), Value: float64(drained)})
	if s.tap != nil {
		// Tapped raw bits of the failed epoch are as suspect as the
		// gated output: discard them so no seed draw ever sees them.
		s.tap.drain()
	}
}

// gateChunk pulls one rawChunk of source bits through the embedded
// tests and the post-processing chain, returning the resulting gated
// bits. A non-None reason means an alarm fired; the chunk is discarded
// and the caller must quarantine.
func (s *Shard) gateChunk() ([]byte, Reason) {
	h := &s.pool.cfg.Health
	raw := s.raw[:rawChunk]
	for i := range raw {
		b := s.src.NextBit() & 1
		raw[i] = b
		if s.tot != nil && s.tot.Push(b) {
			s.alarmStat = float64(h.TotWindow) // the run length that fired
			return nil, ReasonTot
		}
		if s.mon != nil {
			s.monCountdown--
			if s.monCountdown <= 0 {
				s.monCountdown = h.MonitorEveryBits
				q := s.monCounter.NextQ()
				sn := float64(q-s.monPrevQ) * s.monScale
				s.monPrevQ = q
				switch s.mon.Push(sn) {
				case onlinetest.AlarmLow:
					s.alarmStat = s.mon.LastVariance()
					return nil, ReasonThermalLow
				case onlinetest.AlarmHigh:
					s.alarmStat = s.mon.LastVariance()
					return nil, ReasonThermalHigh
				}
			}
		}
	}
	s.rawBits.Add(rawChunk)
	if s.tracker != nil {
		if r := s.collectStream(raw); r != ReasonNone {
			return nil, r
		}
	}
	if !h.DisableAssess {
		if r := s.collectAssessment(raw); r != ReasonNone {
			return nil, r
		}
	}
	if s.tap != nil && s.State() == StateHealthy {
		// Mirror the chunk into the seed tap, packed MSB-first. Only
		// healthy-epoch bits are tapped (startup-test bits are not),
		// and a full tap drops the chunk rather than stalling
		// production: raw bits are not scarce, bounded memory is.
		// sinceTap measures the live-window lookahead behind the
		// newest tapped chunk (see saturated).
		packed := s.packChunk(raw)
		if s.tap.free() >= len(packed) {
			s.tap.push(packed)
			s.tapBytes.Add(uint64(len(packed)))
			s.sinceTap = 0
		} else {
			s.tapDropped.Add(uint64(len(packed)))
			s.sinceTap += rawChunk
		}
	}
	bits := raw
	for _, st := range s.pool.cfg.Post {
		switch st.Op {
		case PostXOR:
			bits = postproc.XORDecimate(bits, st.K)
		case PostVonNeumann:
			bits = postproc.VonNeumann(bits)
		}
	}
	return bits, ReasonNone
}

// collectAssessment advances the periodic SP 800-90B assessment with
// one raw chunk that already cleared the tot and thermal tests. The
// collector is passive — it copies bits the shard generates anyway, so
// enabling or disabling assessment never changes the output stream.
// When an AssessBits sample completes, the suite runs inline on the
// owner goroutine (an O(AssessBits·log) pause every AssessEveryBits
// raw bits), the report is published, and a suite minimum below the
// configured threshold raises a low-entropy alarm.
func (s *Shard) collectAssessment(raw []byte) Reason {
	h := &s.pool.cfg.Health
	if s.assessWait > 0 {
		s.assessWait -= len(raw)
		return ReasonNone
	}
	need := h.AssessBits - len(s.assessBuf)
	if need > len(raw) {
		s.assessBuf = append(s.assessBuf, raw...)
		return ReasonNone
	}
	s.assessBuf = append(s.assessBuf, raw[:need]...)
	rep, err := sp90b.Assess(s.assessBuf)
	s.assessBuf = s.assessBuf[:0]
	s.assessWait = h.AssessEveryBits
	if err != nil {
		// Unreachable: AssessBits >= sp90b.MinBits is validated at
		// construction. Treat defensively as "no report".
		return ReasonNone
	}
	s.assessRuns.Add(1)
	s.lastAssess.Store(&Assessment{
		Shard:   s.index,
		Epoch:   s.epoch.Load(),
		RawBits: s.rawBits.Load(),
		At:      time.Now(),
		Report:  rep,
	})
	if t := h.AssessMinEntropy; t > 0 && rep.MinEntropy < t {
		s.alarmStat = rep.MinEntropy
		return ReasonLowEntropy
	}
	return ReasonNone
}

// collectStream feeds one raw chunk that already cleared the tot and
// thermal tests into the streaming surveillance tracker. Like the
// batch collector it is passive — it reads bits the shard generates
// anyway, so enabling or disabling streaming never changes the output
// stream. Once the sliding window is full the live report is published
// every chunk, and a live suite minimum below StreamMinEntropy raises
// the mid-window watermark alarm: the event carries the crossing
// itself, the quarantine that follows carries the drain.
func (s *Shard) collectStream(raw []byte) Reason {
	h := &s.pool.cfg.Health
	start := time.Now()
	s.tracker.PushBits(raw)
	rep, ok := s.tracker.Report()
	s.streamCost.Record(time.Since(start) / time.Duration(len(raw)))
	if !ok {
		return ReasonNone
	}
	s.liveAssess.Store(&Assessment{
		Shard:   s.index,
		Epoch:   s.epoch.Load(),
		RawBits: s.rawBits.Load(),
		At:      time.Now(),
		Report:  rep,
	})
	if t := h.StreamMinEntropy; t > 0 && rep.MinEntropy < t {
		s.alarmStat = rep.MinEntropy
		s.pool.emit(obs.Event{Type: obs.TypeLiveWatermark, Shard: s.index, Lane: obs.Any,
			Epoch: s.epoch.Load(), Reason: ReasonLiveEntropy.String(), Value: rep.MinEntropy,
			Detail: fmt.Sprintf("window=%d", h.StreamWindow)})
		return ReasonLiveEntropy
	}
	return ReasonNone
}

// produce fills dst with gated output bytes, advancing the shard's
// stream. It returns the bytes written; a short count means an alarm
// fired and the shard quarantined itself mid-way (the caller must
// treat the whole current block as suspect). Only callable on the
// shard's owner goroutine while Healthy.
func (s *Shard) produce(dst []byte) int {
	n := 0
	for {
		// Pack whole bytes out of the gated-bit buffer.
		for len(s.bitbuf)-s.bitpos >= 8 && n < len(dst) {
			var b byte
			for _, bit := range s.bitbuf[s.bitpos : s.bitpos+8] {
				b = b<<1 | bit&1
			}
			s.bitpos += 8
			dst[n] = b
			n++
		}
		if n == len(dst) {
			s.bytesOut.Add(uint64(n))
			return n
		}
		if s.injected.Swap(false) {
			s.quarantine(ReasonInjected)
			s.bytesOut.Add(uint64(n))
			return n
		}
		gated, alarm := s.gateChunk()
		if alarm != ReasonNone {
			s.quarantine(alarm)
			s.bytesOut.Add(uint64(n))
			return n
		}
		if len(gated) == 0 {
			if s.dry++; s.dry >= maxDryChunks {
				s.quarantine(ReasonTot)
				s.bytesOut.Add(uint64(n))
				return n
			}
			continue
		}
		s.dry = 0
		// Compact the consumed prefix (< 8 leftover bits) before
		// appending the fresh chunk, keeping the buffer bounded.
		s.bitbuf = s.bitbuf[:copy(s.bitbuf, s.bitbuf[s.bitpos:])]
		s.bitpos = 0
		s.bitbuf = append(s.bitbuf, gated...)
	}
}

// saturated reports whether a healthy shard's buffer can take no more
// output, which is when its serve-mode producer rests. A ring shard is
// saturated when its ring is full. A tapped shard is saturated when
// three things hold: it carries an assessment of its current epoch
// (as seedEntropy requires), its tap cannot take another packed chunk,
// and at least one live window (Health.StreamWindow raw bits) has been
// gated since the last chunk entered the tap. The last condition makes
// surveillance per raw bit: every tapped bit has a full window of tot,
// §V and tracker tests behind it before the shard rests, whatever the
// wall time. Owner goroutine only.
func (s *Shard) saturated() bool {
	if s.ring != nil {
		return s.ring.free() == 0
	}
	return s.currentAssessment() != nil &&
		s.tap.free() < rawChunk/8 &&
		s.sinceTap >= s.pool.cfg.Health.StreamWindow
}

// survey advances a tapped shard by one raw chunk: the embedded tests,
// surveillance, assessment and seed tap all see it, and the gated bits
// are dropped, since a tapped pool never serves the raw stream. An
// alarm quarantines the shard, as do maxDryChunks consecutive chunks
// that gate no bits. Owner goroutine only, while Healthy.
func (s *Shard) survey() {
	gated, alarm := s.gateChunk()
	switch {
	case alarm != ReasonNone:
		s.quarantine(alarm)
	case len(gated) > 0:
		s.dry = 0
	default:
		if s.dry++; s.dry >= maxDryChunks {
			s.quarantine(ReasonTot)
		}
	}
}

// packChunk packs a raw-bit chunk MSB-first into the shard's tap
// scratch buffer (same layout as postproc.Pack, allocation-free).
func (s *Shard) packChunk(bits []byte) []byte {
	n := (len(bits) + 7) / 8
	if cap(s.tapScratch) < n {
		s.tapScratch = make([]byte, n)
	}
	out := s.tapScratch[:n]
	for i := range out {
		out[i] = 0
	}
	for i, b := range bits {
		if b&1 == 1 {
			out[i/8] |= 0x80 >> (i % 8)
		}
	}
	return out
}

// currentAssessment returns the latest assessment when it describes the
// current calibration epoch, nil otherwise: a report from before the
// last recalibration describes a different source build.
func (s *Shard) currentAssessment() *Assessment {
	if a := s.LastAssessment(); a != nil && a.Epoch == s.Epoch() {
		return a
	}
	return nil
}

// seedEntropy reports whether the shard may currently contribute seed
// material, and at what assessed per-bit min-entropy. Eligibility is
// strict: the shard must be Healthy AND carry a completed SP 800-90B
// assessment of the CURRENT calibration epoch (a report from before
// the last recalibration describes a different source build and does
// not count) whose suite minimum is positive and at least minH. The
// credit is capped at 1 bit/bit.
func (s *Shard) seedEntropy(minH float64) (float64, bool) {
	if s.State() != StateHealthy {
		return 0, false
	}
	a := s.currentAssessment()
	if a == nil {
		return 0, false
	}
	h := a.Report.MinEntropy
	if h <= 0 || h < minH {
		return 0, false
	}
	if h > 1 {
		h = 1
	}
	return h, true
}
