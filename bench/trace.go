package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/load"
	"repro/internal/conditioner"
	"repro/internal/core"
	"repro/internal/entropyd"
	"repro/internal/loadstat"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/trng"
)

// trngd's defaults, which the daemon runs with and the traced stack
// copies. The traced run compares the composed stack with what the
// live daemon reports (stackConfig): shards, mode, DRBG kind,
// conditioner, block bytes, reseed interval, the assessment sample
// (assessBits), the stream window, the journal capacity and the
// incident window. A drift in any of those fails the run.
//
// The daemon reports none of the others, so nothing checks them:
// calibratedDivider, assessEveryBits, assessMin, streamPanes,
// streamMin, ringBytes, seedTapBytes, seedWait, requestWait and
// chunkBytes. A change to one of those defaults in cmd/trngd must be
// copied here, or the traced run measures a different stack.
const (
	calibratedDivider = 640000 // trngd's autoDivider(amp 1): 64·(100/1)²
	assessEveryBits   = 1 << 20
	assessMin         = 0.3
	streamWindow      = 16384
	streamPanes       = 4
	streamMin         = 0.3
	ringBytes         = 1 << 16
	seedTapBytes      = 1 << 13
	reseedInterval    = 1024
	drbgBlockBytes    = 4096
	seedWait          = 2 * time.Second
	requestWait       = 5 * time.Second
	chunkBytes        = 64 << 10 // trngd's response chunk
)

// physics times every raw bit the shards draw from their generators.
type physics struct {
	bits, busyNs atomic.Int64
}

// timedSource is a shard's generator with its NextBit calls timed.
type timedSource struct {
	src *trng.Generator
	p   *physics
}

func (s timedSource) NextBit() byte {
	t := time.Now()
	b := s.src.NextBit()
	s.p.busyNs.Add(int64(time.Since(t)))
	s.p.bits.Add(1)
	return b
}

// timedSink times event emission into one observability sink.
type timedSink struct {
	next  obs.Sink
	name  string
	tr    *tracer
	n, ns atomic.Int64
}

func (s *timedSink) Emit(e obs.Event) {
	t := time.Now()
	s.next.Emit(e)
	end := time.Now()
	s.ns.Add(int64(end.Sub(t)))
	s.n.Add(1)
	s.tr.record(s.tr.id(), 0, 0, s.name, t, end)
}

// stack is trngd's entropyd composition, built in-process with timed
// seams.
type stack struct {
	w       workload
	tr      *tracer
	phys    physics
	journal *timedSink
	engine  *timedSink
	config  stackConfig // as composed; runTraced adds what the pool reports
	pool    *entropyd.Pool
	drbg    *entropyd.DRBGPool
	genB    atomic.Int64 // bytes the traced lane.generate or ring.read calls produced
	bufs    sync.Pool
}

// compose builds the entropyd configuration trngd derives from the
// workload's flags, with the generator and the journal and incident
// sinks wrapped for timing. The fan-out starts with trngd's log sink at
// the benchmark's -log-level warn, writing to nowhere.
func (s *stack) compose(seed uint64) (entropyd.Config, entropyd.DRBGConfig) {
	model := core.PaperModel().ScaleJitter(1)
	journal := obs.NewJournal(obs.DefaultCapacity)
	engine := incident.New(incident.DefaultWindow)
	s.journal = &timedSink{next: journal, name: "journal.emit", tr: s.tr}
	s.engine = &timedSink{next: engine, name: "incident.emit", tr: s.tr}
	logSink := obs.NewLogSink(slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelWarn})))
	s.config = stackConfig{Mode: s.w.mode, AssessBits: assessBits, StreamWindow: streamWindow,
		JournalCapacity: journal.Capacity(), IncidentWindow: engine.Window()}
	cfg := entropyd.Config{
		Shards: shards,
		Seed:   seed,
		Source: entropyd.SourceConfig{Kind: entropyd.SourceERO, Model: model.Phase,
			Divider: calibratedDivider, Leapfrog: true},
		Health: entropyd.HealthConfig{
			AssessBits:       assessBits,
			AssessEveryBits:  assessEveryBits,
			AssessMinEntropy: assessMin,
			StreamWindow:     streamWindow,
			StreamPanes:      streamPanes,
			StreamMinEntropy: streamMin,
		},
		BufBytes: ringBytes,
		Sink:     obs.Multi(logSink, s.journal, s.engine),
		NewSource: func(_, _ int, seed uint64) (entropyd.RawSource, error) {
			g, err := trng.New(trng.Config{Model: model.Phase, Divider: calibratedDivider,
				Seed: seed, Leapfrog: true})
			if err != nil {
				return nil, err
			}
			return timedSource{g, &s.phys}, nil
		},
	}
	if s.w.mode != "drbg" {
		return cfg, entropyd.DRBGConfig{}
	}
	cfg.SeedTapBytes = seedTapBytes
	return cfg, entropyd.DRBGConfig{
		Kind:           entropyd.DRBGCTR,
		ReseedInterval: reseedInterval,
		BlockBytes:     drbgBlockBytes,
		SeedWait:       seedWait,
		Seed:           entropyd.SeedConfig{Cond: conditioner.NewHMACSHA256(nil)},
	}
}

// request serves one /random request the way trngd's handler does, in
// 64 KiB chunks, recording a request span with one child per chunk.
func (s *stack) request(context.Context) (int, error) {
	req := s.tr.id()
	t0 := time.Now()
	bp := s.bufs.Get().(*[]byte)
	defer s.bufs.Put(bp)
	name := "ring.read"
	if s.drbg != nil {
		name = "lane.generate"
	}
	for written := 0; written < s.w.bytes; {
		chunk := (*bp)[:min(s.w.bytes-written, chunkBytes)]
		g0 := time.Now()
		var got int
		var err error
		if s.drbg != nil {
			got, err = s.drbg.Generate(chunk, false, requestWait)
		} else {
			got, err = s.pool.ReadBuffered(chunk, requestWait)
		}
		g1 := time.Now()
		if s.tr.on.Load() {
			s.genB.Add(int64(got))
			s.tr.record(s.tr.id(), req, req, name, g0, g1)
		}
		if err != nil || got < len(chunk) {
			return 0, fmt.Errorf("%s: %d of %d bytes: %v", name, got, len(chunk), err)
		}
		written += got
	}
	s.tr.record(req, 0, req, "request", t0, time.Now())
	return s.w.bytes, nil
}

// traced holds the in-process stack's per-layer readings over the
// traced window.
type traced struct {
	startup, firstAssess time.Duration
	window               time.Duration
	rep                  load.Report
	delta                counters
	// gen holds the durations of the window's lane.generate (DRBG) or
	// ring.read (raw) calls; genBytes is what they produced.
	gen          load.Durations
	genBytes     int64
	streamCost   *loadstat.Snapshot // per-bit stream cost since boot, all shards
	buffered     int                // ring bytes at the window's end
	spans        []span
	droppedSpans int
	config       stackConfig
}

// stackConfig is the part of a stack's configuration that the traced
// run checks against the daemon's own reports.
type stackConfig struct {
	Shards          int
	Mode            string
	Kind            string
	Conditioner     string
	BlockBytes      int
	ReseedInterval  uint64
	AssessBits      int
	StreamWindow    int
	JournalCapacity int
	IncidentWindow  time.Duration
}

// runTraced boots the stack in-process and drives the workload's
// schedule against it for window.
func runTraced(w workload, seed uint64, window time.Duration) (*traced, error) {
	s := &stack{w: w, tr: newTracer()}
	s.bufs.New = func() any { b := make([]byte, chunkBytes); return &b }
	cfg, dcfg := s.compose(seed)
	out := &traced{}
	t0 := time.Now()
	pool, err := entropyd.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("traced stack: %w", err)
	}
	out.startup = time.Since(t0)
	s.pool = pool
	out.config = s.config
	out.config.Shards = pool.NumShards()
	if w.mode == "drbg" {
		if s.drbg, err = pool.DRBGPool(dcfg); err != nil {
			return nil, fmt.Errorf("traced stack: %w", err)
		}
		st := s.drbg.Stats()
		out.config.Kind, out.config.Conditioner = st.Kind, st.Conditioner
		out.config.BlockBytes, out.config.ReseedInterval = st.BlockBytes, st.ReseedInterval
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := pool.Serve(ctx); err != nil {
		return nil, fmt.Errorf("traced stack: %w", err)
	}
	defer pool.Stop()
	for i := 0; i < pool.NumShards(); i++ {
		for pool.Shard(i).LastAssessment() == nil {
			if time.Since(t0) > bootBudget {
				return nil, errors.New("traced stack: no first assessment within the boot budget")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	out.firstAssess = time.Since(t0)
	for {
		if _, err := s.request(ctx); err == nil {
			break
		}
		if time.Since(t0) > bootBudget {
			return nil, errors.New("traced stack: not serving within the boot budget")
		}
	}

	drive(ctx, w, warmup, s.request, nil)
	before := s.counters()
	s.tr.on.Store(true)
	start := time.Now()
	var drillErr error
	var drill func()
	if w.drill {
		drill = func() { drillErr = pool.InjectAlarm(0) }
	}
	out.rep = drive(ctx, w, window, s.request, drill)
	out.window = time.Since(start)
	s.tr.on.Store(false)
	if drillErr != nil {
		return nil, fmt.Errorf("traced drill: %w", drillErr)
	}
	out.delta = s.counters().sub(before)
	out.genBytes = s.genB.Load()
	st := pool.Stats()
	for _, sh := range st.Shards {
		out.buffered += sh.Buffered
	}
	for i := 0; i < pool.NumShards(); i++ {
		if snap := pool.Shard(i).StreamCost(); snap != nil {
			if out.streamCost == nil {
				out.streamCost = snap
			} else {
				out.streamCost.Merge(snap)
			}
		}
	}
	out.spans, out.droppedSpans = s.tr.snapshot()
	var gen []time.Duration
	for _, sp := range out.spans {
		if sp.Name == "lane.generate" || sp.Name == "ring.read" {
			gen = append(gen, time.Duration(sp.End-sp.Start))
		}
	}
	out.gen = load.Sorted(gen)
	return out, nil
}

// counters are the stack's cumulative counts, read before and after
// the traced window.
type counters struct {
	physBits, physBusyNs  int64
	journalN, journalNs   int64
	incidentN, incidentNs int64
	rawBits, assessRuns   uint64
	streamSumNs, streamN  float64 // per-bit stream cost samples (one per chunk)
	sched                 rtHist  // runtime scheduling latencies
}

func (s *stack) counters() counters {
	c := counters{
		physBits: s.phys.bits.Load(), physBusyNs: s.phys.busyNs.Load(),
		journalN: s.journal.n.Load(), journalNs: s.journal.ns.Load(),
		incidentN: s.engine.n.Load(), incidentNs: s.engine.ns.Load(),
		sched: readSched(),
	}
	for i, sh := range s.pool.Stats().Shards {
		c.rawBits += sh.RawBits
		c.assessRuns += sh.AssessRuns
		if snap := s.pool.Shard(i).StreamCost(); snap != nil {
			c.streamSumNs += float64(snap.Sum())
			c.streamN += float64(snap.Count())
		}
	}
	return c
}

// sub returns c minus before.
func (c counters) sub(b counters) counters {
	return counters{
		physBits: c.physBits - b.physBits, physBusyNs: c.physBusyNs - b.physBusyNs,
		journalN: c.journalN - b.journalN, journalNs: c.journalNs - b.journalNs,
		incidentN: c.incidentN - b.incidentN, incidentNs: c.incidentNs - b.incidentNs,
		rawBits: c.rawBits - b.rawBits, assessRuns: c.assessRuns - b.assessRuns,
		streamSumNs: c.streamSumNs - b.streamSumNs, streamN: c.streamN - b.streamN,
		sched: c.sched.sub(b.sched),
	}
}

// rtHist is a runtime/metrics histogram: counts[i] falls in
// [buckets[i], buckets[i+1]).
type rtHist struct {
	counts  []uint64
	buckets []float64
}

// readSched reads the Go runtime's scheduling-latency histogram: how
// long runnable goroutines waited for a processor.
func readSched() rtHist {
	sample := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
		return rtHist{}
	}
	h := sample[0].Value.Float64Histogram()
	return rtHist{append([]uint64(nil), h.Counts...), h.Buckets}
}

func (h rtHist) sub(b rtHist) rtHist {
	out := rtHist{counts: append([]uint64(nil), h.counts...), buckets: h.buckets}
	for i := range out.counts {
		if i < len(b.counts) {
			out.counts[i] -= b.counts[i]
		}
	}
	return out
}

// bound is the finite edge of bucket i nearest its content: the upper
// edge, or the lower one when the upper is +Inf.
func (h rtHist) bound(i int) float64 {
	if up := h.buckets[i+1]; !math.IsInf(up, 1) {
		return up
	}
	return h.buckets[i]
}

// quantile is the upper edge of the bucket holding the q-quantile, 0
// when empty.
func (h rtHist) quantile(q float64) float64 {
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen >= rank && c > 0 {
			return h.bound(i)
		}
	}
	return 0
}
