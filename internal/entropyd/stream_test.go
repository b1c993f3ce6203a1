package entropyd

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sp90b"
)

// fadeSource emits fair PRNG bits, then fades into the deterministic
// 0101… pattern after a set number of bits: balanced (tot never fires,
// bias checks stay blind) but zero-entropy — the class only the
// SP 800-90B layer catches, here with a known onset for latency
// assertions.
type fadeSource struct {
	r     *rng.Source
	after uint64
	n     uint64
}

func (f *fadeSource) NextBit() byte {
	f.n++
	if f.n > f.after {
		return byte(f.n & 1)
	}
	return byte(f.r.Uint64() & 1)
}

// streamHealth is the streaming-surveillance test config: no
// physics-dependent monitor, no startup test, batch assessment off so
// every verdict in these tests is the streaming tracker's.
func streamHealth(threshold float64) HealthConfig {
	return HealthConfig{
		DisableStartup:   true,
		DisableMonitor:   true,
		DisableAssess:    true,
		StreamWindow:     sp90b.MinBits,
		StreamMinEntropy: threshold,
	}
}

// TestStreamingPublishesLiveAssessments: with streaming alongside the
// batch assessment, a healthy pool publishes continuously refreshed
// live reports with sensible bounds and bookkeeping, without alarming.
func TestStreamingPublishesLiveAssessments(t *testing.T) {
	t.Parallel()
	h := assessHealth(0.3)
	h.StreamWindow = sp90b.MinBits
	h.StreamMinEntropy = 0.3
	p, err := New(Config{Shards: 2, Seed: 5, NewSource: goodScript, Health: h})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16384)
	if _, err := p.Fill(buf); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	for i, sh := range st.Shards {
		if sh.LiveAlarms != 0 {
			t.Fatalf("shard %d: %d live alarms on a good source", i, sh.LiveAlarms)
		}
		if sh.LiveAgeSeconds < 0 {
			t.Fatalf("shard %d: no live report after %d raw bits", i, sh.RawBits)
		}
		// The cheap six-estimator minimum on a fair PRNG stream sits
		// well above any plausible watermark.
		if sh.LiveMinEntropy < 0.5 {
			t.Fatalf("shard %d: live min-entropy %.4f < 0.5 on a fair source", i, sh.LiveMinEntropy)
		}
		if sh.StreamNsPerBit <= 0 {
			t.Fatalf("shard %d: surveillance cost not recorded", i)
		}
		a := p.Shard(i).LiveAssessment()
		if a == nil {
			t.Fatalf("shard %d: no live assessment", i)
		}
		if a.Shard != i || a.Epoch != 0 || a.Report.Bits != sp90b.MinBits {
			t.Fatalf("shard %d: live assessment metadata %+v", i, a)
		}
		if len(a.Report.Estimates) != 6 {
			t.Fatalf("shard %d: live report has %d estimates, want 6", i, len(a.Report.Estimates))
		}
		if a.Report.MinEntropy != sh.LiveMinEntropy {
			t.Fatalf("shard %d: stats live min %.4f != report %.4f", i, sh.LiveMinEntropy, a.Report.MinEntropy)
		}
		if a.RawBits < uint64(sp90b.MinBits) || a.RawBits > sh.RawBits {
			t.Fatalf("shard %d: live raw-bit tag %d outside (0, %d]", i, a.RawBits, sh.RawBits)
		}
		if snap := p.Shard(i).StreamCost(); snap == nil || snap.Count() == 0 {
			t.Fatalf("shard %d: empty surveillance-cost histogram", i)
		}
		// Batch assessment keeps running as the deep pass.
		if sh.AssessRuns == 0 {
			t.Fatalf("shard %d: batch assessment stopped while streaming", i)
		}
	}
}

// TestStreamingIsPassive: the tracker only reads raw bits, so the pool
// output stream is bit-identical with streaming enabled, disabled, and
// across worker counts — the same pin the PR-4 batch collector carries.
func TestStreamingIsPassive(t *testing.T) {
	t.Parallel()
	fill := func(h HealthConfig, jobs int) []byte {
		cfg := Config{Shards: 3, Seed: 21, NewSource: goodScript, Health: h, Jobs: jobs}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 12288)
		if _, err := p.Fill(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	on := fill(streamHealth(0), 1)
	off := streamHealth(0)
	off.StreamWindow = 0
	if !bytes.Equal(on, fill(off, 1)) {
		t.Fatal("streaming surveillance changed the output stream")
	}
	if !bytes.Equal(on, fill(streamHealth(0), 4)) {
		t.Fatal("streaming surveillance broke jobs-width determinism")
	}
}

// TestStreamingWatermarkDrill drills the mid-window low-watermark: a
// shard fades to the zero-entropy 0101… pattern at a known raw-bit
// onset, the live bound crosses the watermark and quarantines the
// shard with ReasonLiveEntropy WITHOUT waiting for a batch sample
// boundary — the journal shows the live-watermark event, the alarm,
// the quarantine, and the paired detection latency for the class.
func TestStreamingWatermarkDrill(t *testing.T) {
	t.Parallel()
	const onset = 20000
	j, eng, sink := newObserved()
	cfg := Config{
		Shards: 2,
		Seed:   9,
		Sink:   sink,
		NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
			if shard == 0 && epoch == 0 {
				return &fadeSource{r: rng.New(seed), after: onset}, nil
			}
			return goodScript(shard, epoch, seed)
		},
		Health: streamHealth(0.3),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attack.Mark(sink, 0, nil) // drill armed: clock starts
	buf := make([]byte, 4096)
	for i := 0; i < 16 && p.Shard(0).State() == StateHealthy; i++ {
		if _, err := p.Fill(buf); err != nil {
			t.Fatal(err)
		}
	}
	s0 := p.Shard(0)
	if s0.State() != StateQuarantined || s0.LastReason() != ReasonLiveEntropy {
		t.Fatalf("shard 0: state %v reason %v, want quarantined/live-low-entropy", s0.State(), s0.LastReason())
	}
	// Mid-window: the degradation was caught before one full sliding
	// window of degraded bits had even accumulated.
	if got := s0.RawBits(); got > onset+uint64(sp90b.MinBits) {
		t.Errorf("caught at raw bit %d, more than a window past the %d onset", got, onset)
	}
	if got := p.Stats().Shards[0].LiveAlarms; got != 1 {
		t.Errorf("live alarms = %d, want 1", got)
	}

	// Journal story: live-watermark (with the crossing value), then the
	// alarm, then the quarantine, all under the live-low-entropy class.
	q := obs.NewQuery()
	q.Shard = 0
	q.Type = obs.TypeLiveWatermark
	marks := j.Read(q).Events
	if len(marks) != 1 {
		t.Fatalf("live-watermark events = %d, want 1", len(marks))
	}
	if v := marks[0].Value; v < 0 || v >= 0.3 {
		t.Errorf("watermark value %v, want live min-entropy in [0, 0.3)", v)
	}
	q = obs.NewQuery()
	q.Shard = 0
	q.Type = obs.TypeAlarm
	alarms := j.Read(q).Events
	if len(alarms) != 1 || alarms[0].Reason != "live-low-entropy" {
		t.Fatalf("alarm events: %+v, want one live-low-entropy", alarms)
	}
	q = obs.NewQuery()
	q.Shard = 0
	q.Type = obs.TypeQuarantine
	q.Since = marks[0].Seq
	quars := j.Read(q).Events
	if len(quars) != 1 || quars[0].Reason != "live-low-entropy" {
		t.Fatalf("quarantine after watermark: %+v", quars)
	}
	// The marker→quarantine pairing lands in the engine's
	// detection-latency histogram under the new class.
	snap, ok := eng.Stats().Detection["live-low-entropy"]
	if !ok || snap.Count() != 1 {
		t.Fatalf("live-low-entropy detection latency not recorded: %v", eng.Stats().Detection)
	}
}

// TestStreamingResetOnRecalibrate: the sliding window must not mix
// bits across a rebuild — after a heal the live report disappears
// until a full window of the NEW epoch has been observed.
func TestStreamingResetOnRecalibrate(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Shards: 1,
		Seed:   13,
		NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
			if epoch == 0 {
				return &fadeSource{r: rng.New(seed), after: 15000}, nil
			}
			return goodScript(shard, epoch, seed)
		},
		Health: streamHealth(0.3),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	for i := 0; i < 16 && p.Shard(0).State() == StateHealthy; i++ {
		p.Fill(buf)
	}
	if p.Shard(0).State() != StateQuarantined {
		t.Fatal("epoch-0 degradation not caught")
	}
	if healed := p.Recalibrate(context.Background()); healed != 1 {
		t.Fatalf("Recalibrate healed %d shards, want 1", healed)
	}
	if a := p.Shard(0).LiveAssessment(); a != nil {
		t.Fatalf("stale live assessment survived recalibration: %+v", a)
	}
	if _, err := p.Fill(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	a := p.Shard(0).LiveAssessment()
	if a == nil {
		t.Fatal("no live assessment after a full window of the new epoch")
	}
	if a.Epoch != 1 || a.Report.MinEntropy < 0.5 {
		t.Fatalf("post-heal live assessment: %+v, want epoch 1 and a healthy bound", a)
	}
}

// TestStreamConfigValidation guards the streaming health knobs.
func TestStreamConfigValidation(t *testing.T) {
	t.Parallel()
	cfg := Config{NewSource: goodScript, Health: streamHealth(0)}
	cfg.Health.StreamWindow = sp90b.MinBits - 1
	if _, err := New(cfg); err == nil {
		t.Error("undersized StreamWindow accepted")
	}
	cfg = Config{NewSource: goodScript, Health: streamHealth(0)}
	cfg.Health.StreamPanes = 3 // does not divide 10000
	if _, err := New(cfg); err == nil {
		t.Error("non-dividing pane count accepted")
	}
	cfg = Config{NewSource: goodScript, Health: streamHealth(1.5)}
	if _, err := New(cfg); err == nil {
		t.Error("out-of-range watermark accepted")
	}
	// Streaming off skips the validation entirely.
	cfg = Config{NewSource: goodScript, Health: HealthConfig{DisableStartup: true, DisableMonitor: true, StreamPanes: 3}}
	if _, err := New(cfg); err != nil {
		t.Errorf("disabled streaming still validated: %v", err)
	}
}

// TestServeStreamingStress runs a serving pool with the inline tracker
// enabled while consumers and status pollers hammer it — the -race
// pin on the live-assessment publication path.
func TestServeStreamingStress(t *testing.T) {
	t.Parallel()
	h := streamHealth(0)
	p, err := New(Config{Shards: 2, Seed: 17, NewSource: goodScript, Health: h, BufBytes: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := p.Stats()
				for i := range st.Shards {
					p.Shard(i).LiveAssessment()
					p.Shard(i).StreamCost()
				}
			}
		}()
	}
	out := make([]byte, 24*1024)
	got := 0
	for got < len(out) {
		n, err := p.ReadBuffered(out[got:], time.Second)
		if err != nil {
			t.Fatalf("ReadBuffered after %d bytes: %v", got, err)
		}
		got += n
	}
	close(done)
	wg.Wait()
	// Enough raw bits flowed for every shard to carry a live report.
	for i := 0; i < p.NumShards(); i++ {
		if p.Shard(i).LiveAssessment() == nil {
			t.Errorf("shard %d served %d bytes without a live assessment", i, got)
		}
	}
}
