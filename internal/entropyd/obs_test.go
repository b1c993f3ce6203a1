package entropyd

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/rng"
)

// TestJournalBitIdentity is the observability pin: attaching an event
// journal must leave the pool's output stream bit-identical, including
// through an alarm/quarantine/redistribution episode (the densest
// event-emission path). Emission is passive; this test is what keeps
// it so.
func TestJournalBitIdentity(t *testing.T) {
	t.Parallel()
	mk := func(sink obs.Sink) *Pool {
		cfg := Config{
			Shards: 2,
			Seed:   7,
			Health: HealthConfig{DisableMonitor: true, TotWindow: 64},
			Sink:   sink,
			NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
				fail := uint64(math.MaxUint64)
				if shard == 0 && epoch == 0 {
					fail = startupBits + 3000 // dies mid-service
				}
				return &scriptSource{r: rng.New(seed), failAfter: fail}, nil
			},
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	j := NewTestJournal()
	pOn, pOff := mk(j), mk(nil)

	a := make([]byte, 8192)
	b := make([]byte, 8192)
	if _, err := pOn.Fill(a); err != nil {
		t.Fatal(err)
	}
	if _, err := pOff.Fill(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("output diverged with journal attached (through a quarantine episode)")
	}
	// Heal both and compare the post-heal stream too.
	pOn.Recalibrate(context.Background())
	pOff.Recalibrate(context.Background())
	if _, err := pOn.Fill(a); err != nil {
		t.Fatal(err)
	}
	if _, err := pOff.Fill(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("post-heal output diverged with journal attached")
	}
	if j.LastSeq() == 0 {
		t.Fatal("journal recorded nothing — the pin proved the wrong thing")
	}
}

// NewTestJournal builds a journal sized for a test run.
func NewTestJournal() *obs.Journal { return obs.NewJournal(1 << 12) }

// newObserved fans one sink out to a test journal, which pages the
// event story, and an incident engine, which derives the detection
// latencies.
func newObserved() (*obs.Journal, *incident.Engine, obs.Sink) {
	j, eng := NewTestJournal(), incident.New(incident.DefaultWindow)
	return j, eng, obs.Multi(j, eng)
}

// TestIncidentEngineBitIdentity extends the passivity pin to the
// incident correlation engine: fanning the event stream out to the
// engine alongside the journal must leave the pool's output
// bit-identical with the engine absent, through the same
// quarantine/heal episode — and the engine must actually have folded
// that episode into an incident, so the pin proves the right thing.
func TestIncidentEngineBitIdentity(t *testing.T) {
	t.Parallel()
	mk := func(sink obs.Sink) *Pool {
		cfg := Config{
			Shards: 2,
			Seed:   7,
			Health: HealthConfig{DisableMonitor: true, TotWindow: 64},
			Sink:   sink,
			NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
				fail := uint64(math.MaxUint64)
				if shard == 0 && epoch == 0 {
					fail = startupBits + 3000 // dies mid-service
				}
				return &scriptSource{r: rng.New(seed), failAfter: fail}, nil
			},
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	eng := incident.New(incident.DefaultWindow)
	pOn, pOff := mk(obs.Multi(NewTestJournal(), eng)), mk(NewTestJournal())

	a := make([]byte, 8192)
	b := make([]byte, 8192)
	if _, err := pOn.Fill(a); err != nil {
		t.Fatal(err)
	}
	if _, err := pOff.Fill(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("output diverged with the incident engine attached")
	}
	pOn.Recalibrate(context.Background())
	pOff.Recalibrate(context.Background())
	if _, err := pOn.Fill(a); err != nil {
		t.Fatal(err)
	}
	if _, err := pOff.Fill(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("post-heal output diverged with the incident engine attached")
	}
	incs, last := eng.Incidents(0)
	if last != 1 || len(incs) != 1 || !incs[0].Resolved || incs[0].Class != incident.ClassSingleShard {
		t.Fatalf("engine did not fold the episode into one resolved single-shard incident: %+v", incs)
	}
}

// TestShardLifecycleEventSequence walks the tot health cycle and
// checks the journal tells the full story in order: startup passes at
// construction, the alarm with its statistic, the quarantine with the
// reason, the recalibration, the heal.
func TestShardLifecycleEventSequence(t *testing.T) {
	t.Parallel()
	j := NewTestJournal()
	cfg := Config{
		Shards: 2,
		Seed:   7,
		Health: HealthConfig{DisableMonitor: true, TotWindow: 64},
		Sink:   j,
		NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
			fail := uint64(math.MaxUint64)
			if shard == 0 && epoch == 0 {
				fail = startupBits + 3000
			}
			return &scriptSource{r: rng.New(seed), failAfter: fail}, nil
		},
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Construction: one startup-pass per shard.
	q := obs.NewQuery()
	q.Type = obs.TypeStartupPass
	if evs := j.Read(q).Events; len(evs) != 2 {
		t.Fatalf("startup-pass events = %d, want 2", len(evs))
	}

	buf := make([]byte, 2048)
	if _, err := p.Fill(buf); err != nil {
		t.Fatal(err)
	}
	p.Recalibrate(context.Background())

	q = obs.NewQuery()
	q.Shard = 0
	evs := j.Read(q).Events
	var types []obs.Type
	for _, e := range evs {
		types = append(types, e.Type)
	}
	want := []obs.Type{obs.TypeStartupPass, obs.TypeAlarm, obs.TypeQuarantine,
		obs.TypeRecalibrate, obs.TypeStartupPass, obs.TypeHeal}
	if len(types) != len(want) {
		t.Fatalf("shard 0 event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event %d = %s, want %s (full: %v)", i, types[i], want[i], types)
		}
	}
	if evs[1].Reason != "tot" || evs[1].Value != 64 {
		t.Errorf("alarm event: reason %q value %v, want tot/64 (the run length)", evs[1].Reason, evs[1].Value)
	}
	if evs[2].Reason != "tot" {
		t.Errorf("quarantine reason %q, want tot", evs[2].Reason)
	}
	if evs[3].Epoch != 1 || evs[5].Epoch != 1 {
		t.Errorf("recalibrate/heal epochs: %d, %d, want 1, 1", evs[3].Epoch, evs[5].Epoch)
	}
	// Sequence numbers strictly increase along the story.
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("seq not increasing at %d: %d <= %d", i, evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// drillLatency runs one drill: emit the marker, trip the shard via
// fill, and check the engine's detection latency for the class plus the
// marker→quarantine event pair in the journal (the /events correlation
// contract).
func drillLatency(t *testing.T, j *obs.Journal, eng *incident.Engine, p *Pool, class string, fill func()) {
	t.Helper()
	fill()
	s0 := p.Shard(0)
	if s0.State() != StateQuarantined || s0.LastReason().String() != class {
		t.Fatalf("shard 0: state %v reason %v, want quarantined/%s", s0.State(), s0.LastReason(), class)
	}
	lats := eng.Stats().Detection
	snap, ok := lats[class]
	if !ok || snap.Count() != 1 {
		t.Fatalf("detection latency for class %q not recorded: %v", class, lats)
	}
	if snap.Max() < 0 {
		t.Fatalf("negative detection latency %v", snap.Max())
	}
	// The correlated pair is retrievable through the cursor API.
	q := obs.NewQuery()
	q.Shard = 0
	q.Type = obs.TypeInjectionMarker
	markers := j.Read(q).Events
	if len(markers) != 1 {
		t.Fatalf("marker events = %d, want 1", len(markers))
	}
	q = obs.NewQuery()
	q.Shard = 0
	q.Type = obs.TypeQuarantine
	q.Since = markers[0].Seq
	quars := j.Read(q).Events
	if len(quars) != 1 || quars[0].Reason != class {
		t.Fatalf("quarantine after marker: %+v, want one with reason %s", quars, class)
	}
}

// TestDetectionLatencyTot: drill the total-failure class — the source
// flatlines at a known bit, the marker starts the clock, the tot test
// quarantine stops it.
func TestDetectionLatencyTot(t *testing.T) {
	t.Parallel()
	j, eng, sink := newObserved()
	cfg := Config{
		Shards: 2,
		Seed:   7,
		Health: HealthConfig{DisableMonitor: true, TotWindow: 64},
		Sink:   sink,
		NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
			fail := uint64(math.MaxUint64)
			if shard == 0 && epoch == 0 {
				fail = startupBits + 3000
			}
			return &scriptSource{r: rng.New(seed), failAfter: fail}, nil
		},
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attack.Mark(sink, 0, nil) // drill armed: clock starts
	drillLatency(t, j, eng, p, "tot", func() {
		buf := make([]byte, 2048)
		if _, err := p.Fill(buf); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDetectionLatencyThermal: drill the paper's §V class — thermal
// suppression armed on the monitor pair, marker emitted by the attack
// layer, thermal-low quarantine closes the pair.
func TestDetectionLatencyThermal(t *testing.T) {
	t.Parallel()
	j, eng, sink := newObserved()
	cfg := thermalConfig(2, 31)
	cfg.Sink = sink
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pair := p.Shard(0).MonitorPair()
	sc := attack.ThermalSuppression{Factor: 0.9}
	sc.Arm(pair.Osc1)
	sc.Arm(pair.Osc2)
	attack.Mark(sink, 0, sc)
	drillLatency(t, j, eng, p, "thermal-low", func() {
		buf := make([]byte, 8192)
		if _, err := p.Fill(buf); err != nil {
			t.Fatal(err)
		}
	})
	// The alarm event carries the collapsed variance as its statistic.
	q := obs.NewQuery()
	q.Shard = 0
	q.Type = obs.TypeAlarm
	evs := j.Read(q).Events
	if len(evs) != 1 || evs[0].Reason != "thermal-low" || evs[0].Value <= 0 {
		t.Fatalf("thermal alarm event: %+v, want reason thermal-low with positive variance", evs)
	}
}

// TestDetectionLatencyLowEntropy: drill the assessment class — the
// 0101… source is statistically invisible to tot/monitor but carries
// zero entropy; the SP 800-90B predictors catch it.
func TestDetectionLatencyLowEntropy(t *testing.T) {
	t.Parallel()
	j, eng, sink := newObserved()
	cfg := Config{
		Shards: 2,
		Seed:   9,
		Sink:   sink,
		NewSource: func(shard, epoch int, seed uint64) (RawSource, error) {
			if shard == 0 && epoch == 0 {
				return &alternatingSource{}, nil
			}
			return goodScript(shard, epoch, seed)
		},
		Health: assessHealth(0.3),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	attack.Mark(sink, 0, nil)
	drillLatency(t, j, eng, p, "low-entropy", func() {
		// Keep filling until the assessment sample completes and fires
		// (AssessBits raw bits through shard 0).
		buf := make([]byte, 4096)
		for i := 0; i < 16 && p.Shard(0).State() == StateHealthy; i++ {
			if _, err := p.Fill(buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	// The alarm statistic is the assessed suite min-entropy, below the
	// 0.3 threshold.
	q := obs.NewQuery()
	q.Shard = 0
	q.Type = obs.TypeAlarm
	evs := j.Read(q).Events
	if len(evs) != 1 || evs[0].Reason != "low-entropy" {
		t.Fatalf("low-entropy alarm event: %+v", evs)
	}
	if v := evs[0].Value; v < 0 || v >= 0.3 {
		t.Errorf("alarm statistic %v, want assessed min-entropy in [0, 0.3)", v)
	}
}

// TestInjectAlarmEmitsMarker: the operator drill endpoint's pool hook
// emits the marker itself, and the serve-path quarantine closes the
// pair with class "injected".
func TestInjectAlarmEmitsMarker(t *testing.T) {
	t.Parallel()
	j, eng, sink := newObserved()
	cfg := Config{
		Shards:    2,
		Seed:      11,
		Health:    HealthConfig{DisableMonitor: true},
		Sink:      sink,
		NewSource: goodScript,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.InjectAlarm(0); err != nil {
		t.Fatal(err)
	}
	q := obs.NewQuery()
	q.Type = obs.TypeInjectionMarker
	if evs := j.Read(q).Events; len(evs) != 1 || evs[0].Shard != 0 {
		t.Fatalf("marker events after InjectAlarm: %+v", evs)
	}
	buf := make([]byte, 2048)
	if _, err := p.Fill(buf); err != nil {
		t.Fatal(err)
	}
	if snap := eng.Stats().Detection["injected"]; snap == nil || snap.Count() != 1 {
		t.Fatalf("injected-class latency not recorded: %v", eng.Stats().Detection)
	}
}

// TestDRBGAndSeedEvents: the expansion layer's lane lifecycle shows up
// in the journal — instantiations, seed draws with the vetted credit,
// interval reseeds, and the fail-closed transition when no seed
// material exists.
func TestDRBGAndSeedEvents(t *testing.T) {
	t.Parallel()
	j := NewTestJournal()
	cfg := drbgTestConfig(2, 5)
	cfg.Sink = j
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Before any assessment: instantiation must fail closed, and the
	// journal must say so.
	dp, err := p.DRBGPool(DRBGConfig{BlockBytes: 1024, ReseedInterval: 2,
		SeedWait: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 1024)
	if _, err := dp.Generate(out, false, 10*time.Millisecond); !errors.Is(err, ErrSeedStarved) {
		t.Fatalf("Generate before assessment: %v, want ErrSeedStarved", err)
	}
	q := obs.NewQuery()
	q.Type = obs.TypeDRBGReseedFail
	if evs := j.Read(q).Events; len(evs) == 0 {
		t.Fatal("no drbg-reseed-fail event for the starved instantiate")
	}
	q = obs.NewQuery()
	q.Type = obs.TypeDRBGFailClosed
	if evs := j.Read(q).Events; len(evs) != 1 {
		t.Fatalf("drbg-fail-closed events = %d, want 1", len(evs))
	}

	// Prime assessments and taps; now lanes instantiate, draw seed and
	// reseed on the 2-block interval.
	primeAssessments(t, p)
	cursor := j.LastSeq()
	if _, err := dp.Generate(make([]byte, 8*1024), false, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	q = obs.NewQuery()
	q.Since = cursor
	q.Type = obs.TypeDRBGInstantiate
	inst := j.Read(q).Events
	if len(inst) == 0 {
		t.Fatal("no drbg-instantiate events")
	}
	for _, e := range inst {
		if e.Lane != e.Shard || e.Detail == "" {
			t.Errorf("instantiate event malformed: %+v", e)
		}
	}
	q = obs.NewQuery()
	q.Since = cursor
	q.Type = obs.TypeSeedDraw
	draws := j.Read(q).Events
	if len(draws) == 0 {
		t.Fatal("no seed-draw events")
	}
	for _, e := range draws {
		// The vetted credit must cover the conditioner output width
		// (256 bits for the default HMAC-SHA-256) to within the 0.999
		// emission floor.
		if e.Value < 0.999*256 {
			t.Errorf("seed-draw credit %v below the emission floor", e.Value)
		}
	}
	q = obs.NewQuery()
	q.Since = cursor
	q.Type = obs.TypeDRBGReseed
	if evs := j.Read(q).Events; len(evs) == 0 {
		t.Fatal("no drbg-reseed events despite the 2-block interval")
	}
}
