package entropyd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sp90b"
)

// pacedConfig is a tapped two-shard pool whose producers pace: the
// first assessment lands at sp90b.MinBits raw bits, before the 2 KiB
// tap is full, and a live window of sp90b.MinBits raw bits follows the
// newest tapped chunk before a shard rests.
func pacedConfig(seed uint64) Config {
	cfg := drbgTestConfig(2, seed)
	cfg.SeedTapBytes = 2048
	cfg.Health.StreamWindow = sp90b.MinBits
	cfg.Health.RecalibrateBackoff = 10 * time.Millisecond
	return cfg
}

// servePool starts serve mode for the rest of the test.
func servePool(t *testing.T, p *Pool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	if err := p.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
}

// lookahead returns the raw bits shard i dropped behind its full tap
// since the base snapshot. With a single consumer that drew before the
// base, they are the live window gated after the newest tapped chunk.
func lookahead(p *Pool, i int, base Stats) int {
	return 8 * int(p.shards[i].tapDropped.Load()-base.Shards[i].TapDropped)
}

// surveyed reports whether shard i shows every resting condition from
// outside: a current-epoch assessment, a tap that cannot take another
// chunk, and at least one live window of lookahead since base.
func surveyed(p *Pool, i int, base Stats) bool {
	s := p.shards[i]
	a := s.LastAssessment()
	return a != nil && a.Epoch == s.Epoch() &&
		s.tap.capacity()-s.tap.buffered() < rawChunk/8 &&
		lookahead(p, i, base) >= p.cfg.Health.StreamWindow
}

// awaitRest waits until every shard of a serving paced pool has a full,
// assessed and surveyed tap, then pins that the producers rest: raw
// bits stand still for at least 60 ms while rest time accrues, after
// exactly one window of lookahead (rounded up to a chunk). It returns the
// snapshot taken at the start of the still window.
func awaitRest(t *testing.T, p *Pool, base Stats) Stats {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for i := range p.shards {
		for !surveyed(p, i, base) {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never filled, assessed and surveyed its tap: %+v", i, p.Stats().Shards[i])
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := p.Stats()
	time.Sleep(60 * time.Millisecond)
	for i := range p.shards {
		// Rest time is booked when a sleep ends, which a loaded
		// runner may delay past the still window.
		for p.Stats().Shards[i].RestSeconds <= before.Shards[i].RestSeconds {
			if time.Now().After(deadline) {
				t.Fatalf("shard %d accrued no rest time: %+v", i, p.Stats().Shards[i])
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i, sh := range p.Stats().Shards {
		if b := before.Shards[i]; sh.RawBits != b.RawBits {
			t.Fatalf("shard %d kept gating on a full, surveyed tap: raw bits %d -> %d", i, b.RawBits, sh.RawBits)
		}
		if l := lookahead(p, i, base); l >= p.cfg.Health.StreamWindow+rawChunk {
			t.Fatalf("shard %d gated %d lookahead bits, want one window (%d) rounded up to a chunk",
				i, l, p.cfg.Health.StreamWindow)
		}
	}
	return before
}

// TestPacedShardContract walks one serving paced pool through the
// pacing contract: the shards rest once their taps are full, assessed
// and covered by one live window; a seed draw wakes the drawn shard,
// which rests again one window past its newest tapped chunk; and an
// operator drill on a resting shard lands within 100 ms and heals with
// an assessment of the new epoch.
func TestPacedShardContract(t *testing.T) {
	t.Parallel()
	p, err := New(pacedConfig(51))
	if err != nil {
		t.Fatal(err)
	}
	boot := p.Stats()
	servePool(t, p)
	rest := awaitRest(t, p, boot)

	t.Run("SeedDrawWakes", func(t *testing.T) {
		r0 := rest.Shards[0]
		src, err := p.SeedSource(SeedConfig{})
		if err != nil {
			t.Fatal(err)
		}
		// Several conditioner blocks: more than one packed chunk of
		// tap space, so the shard has room to wake into.
		if err := src.Seed(make([]byte, 128), 0, time.Second); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			sh := p.Stats().Shards[0]
			if sh.TapBytes > r0.TapBytes && sh.RawBits > r0.RawBits {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed draw did not wake shard 0: rested %+v, now %+v", r0, sh)
			}
			time.Sleep(time.Millisecond)
		}
		// Every freshly tapped chunk is covered by a full window before
		// the shard rests again, so at least chunk + window raw bits
		// passed. Shard 1 was not drawn from and is still in its first
		// rest.
		again := awaitRest(t, p, Stats{Shards: []ShardStatus{r0, boot.Shards[1]}}).Shards[0]
		if grown := int(again.RawBits - r0.RawBits); grown < rawChunk+p.cfg.Health.StreamWindow {
			t.Fatalf("shard 0 re-rested after %d raw bits, want >= %d", grown, rawChunk+p.cfg.Health.StreamWindow)
		}
	})

	t.Run("AlarmOnRestingShard", func(t *testing.T) {
		q0 := p.Stats().Shards[1].Quarantines
		start := time.Now()
		if err := p.InjectAlarm(1); err != nil {
			t.Fatal(err)
		}
		for p.Stats().Shards[1].Quarantines == q0 {
			if time.Since(start) > 100*time.Millisecond {
				t.Fatal("injected alarm did not land on the resting shard within 100 ms")
			}
			time.Sleep(time.Millisecond)
		}
		deadline := time.Now().Add(10 * time.Second)
		s := p.Shard(1)
		for {
			a := s.LastAssessment()
			if e := s.Epoch(); s.State() == StateHealthy && e >= 1 && a != nil && a.Epoch == e {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard 1 did not heal with a current-epoch assessment: %+v", p.Stats().Shards[1])
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// TestUnassessedShardNeverRests: pacing waits for an assessment of the
// current epoch, both at boot and after a recalibration. The 1 KiB tap
// fills at 8192 raw bits, before the first assessment at
// sp90b.MinBits, and a quarantine leaves the tap full of drained bytes
// no consumer has skipped yet, so a rule without the assessment
// condition would rest unassessed in both phases.
func TestUnassessedShardNeverRests(t *testing.T) {
	t.Parallel()
	cfg := drbgTestConfig(2, 54)
	cfg.SeedTapBytes = 1024
	cfg.Health.RecalibrateBackoff = 10 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	servePool(t, p)
	// Read the rest counter before the assessment: a rest observed
	// while the assessment is still missing happened unassessed.
	awaitAssessed := func(i int, rest0 float64) {
		t.Helper()
		s := p.shards[i]
		deadline := time.Now().Add(10 * time.Second)
		for {
			rested := p.Stats().Shards[i].RestSeconds > rest0
			e := s.Epoch()
			a := s.LastAssessment()
			assessed := a != nil && a.Epoch == e && s.State() == StateHealthy
			if rested && !assessed {
				t.Fatalf("shard %d rested in epoch %d before assessing it", i, e)
			}
			if assessed {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never assessed epoch %d", i, e)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	for i := range p.shards {
		awaitAssessed(i, 0)
	}
	q0 := p.Stats().Shards[0].Quarantines
	if err := p.InjectAlarm(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Shards[0].Quarantines == q0 {
		if time.Now().After(deadline) {
			t.Fatal("injected alarm never landed")
		}
		time.Sleep(time.Millisecond)
	}
	awaitAssessed(0, p.Stats().Shards[0].RestSeconds)
	if e := p.Shard(0).Epoch(); e < 1 {
		t.Fatalf("shard 0 epoch %d after the drill, want >= 1", e)
	}
}

// TestRingShardRestCounted: a ring shard rests in the same path once
// its ring is full, and the rest time shows in its status.
func TestRingShardRestCounted(t *testing.T) {
	t.Parallel()
	p, err := New(Config{Shards: 1, BufBytes: fillBlock, NewSource: goodScript,
		Health: HealthConfig{DisableMonitor: true}})
	if err != nil {
		t.Fatal(err)
	}
	servePool(t, p)
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Shards[0].RestSeconds == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ring shard never rested: %+v", p.Stats().Shards[0])
		}
		time.Sleep(time.Millisecond)
	}
	if b := p.Stats().Shards[0].Buffered; b != fillBlock {
		t.Fatalf("resting ring shard buffers %d bytes, want a full ring (%d)", b, fillBlock)
	}
}

// bitLog records which shard drew each raw bit across a pool's
// sources. A run is a stretch of consecutive bits from one shard; a
// run that ends off a chunk boundary means two producers gated at once.
type bitLog struct {
	mu     sync.Mutex
	cur    int // shard of the current run, -1 before the first bit
	run    int // bits in the current run
	runs   int // completed runs
	broken int // completed runs that were not whole chunks
}

func (l *bitLog) source(shard, epoch int, seed uint64) (RawSource, error) {
	src, err := goodScript(shard, epoch, seed)
	return hookSource{RawSource: src, hook: func() { l.add(shard) }}, err
}

// reset starts a fresh log; call it while no producer is gating.
func (l *bitLog) reset() {
	l.mu.Lock()
	l.cur, l.run, l.runs, l.broken = -1, 0, 0, 0
	l.mu.Unlock()
}

func (l *bitLog) add(shard int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if shard != l.cur {
		if l.cur >= 0 {
			l.runs++
			if l.run%rawChunk != 0 {
				l.broken++
			}
		}
		l.cur, l.run = shard, 0
	}
	l.run++
}

// hookSource calls hook before every raw bit it draws.
type hookSource struct {
	RawSource
	hook func()
}

func (s hookSource) NextBit() byte {
	s.hook()
	return s.RawSource.NextBit()
}

// TestSurveySlotsSerializePacedWork: with GOMAXPROCS 2 at Serve there
// is one survey slot, so two assessed shards woken by seed draws top
// up their taps one whole raw chunk at a time, taking turns, and never
// gate at once. Not parallel: it sets GOMAXPROCS.
func TestSurveySlotsSerializePacedWork(t *testing.T) {
	log := &bitLog{cur: -1}
	cfg := pacedConfig(56)
	cfg.NewSource = log.source
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := p.Stats()
	prev := runtime.GOMAXPROCS(2)
	servePool(t, p)
	runtime.GOMAXPROCS(prev)
	rest := awaitRest(t, p, boot)

	log.reset()
	src, err := p.SeedSource(SeedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.shards {
		if err := src.Seed(make([]byte, 128), i, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	awaitRest(t, p, rest)
	log.mu.Lock()
	defer log.mu.Unlock()
	if log.runs == 0 {
		t.Fatal("only one shard gated after the seed draws")
	}
	if log.broken > 0 || log.run%rawChunk != 0 {
		t.Fatalf("%d of %d runs (last %d bits) were not whole chunks: the shards gated at once",
			log.broken, log.runs, log.run)
	}
}

// TestUnpacedWorkHoldsOffSurvey: a shard on its way back into service
// comes before paced survey work. With one survey slot, shard 1 tops up
// a drained tap while shard 0 assesses its new epoch after a drill;
// shard 1 finishes at most the chunk it had begun and resumes once
// shard 0 is assessed. Shard 0's new source sleeps 1 ms per chunk, so
// its assessment outlasts shard 1's backlog. Not parallel: it sets
// GOMAXPROCS.
func TestUnpacedWorkHoldsOffSurvey(t *testing.T) {
	var (
		pool          atomic.Pointer[Pool]
		started       atomic.Bool  // shard 0 drew its first epoch-1 bit
		during, after atomic.Int64 // shard 1 bits before/after shard 0's epoch-1 assessment
	)
	cfg := pacedConfig(57)
	cfg.SeedTapBytes = 4096
	cfg.Health.AssessEveryBits = 1 << 20
	cfg.Health.RecalibrateBackoff = time.Millisecond
	cfg.NewSource = func(shard, epoch int, seed uint64) (RawSource, error) {
		src, err := goodScript(shard, epoch, seed)
		hook := func() {}
		switch {
		case shard == 0 && epoch == 1:
			n := 0
			hook = func() {
				started.Store(true)
				if n++; n%rawChunk == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		case shard == 1:
			hook = func() {
				if !started.Load() {
					return
				}
				if a := pool.Load().Shard(0).LastAssessment(); a != nil && a.Epoch >= 1 {
					after.Add(1)
				} else {
					during.Add(1)
				}
			}
		}
		return hookSource{RawSource: src, hook: hook}, err
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Store(p)
	boot := p.Stats()
	prev := runtime.GOMAXPROCS(2)
	servePool(t, p)
	runtime.GOMAXPROCS(prev)
	awaitRest(t, p, boot)

	if err := p.InjectAlarm(0); err != nil {
		t.Fatal(err)
	}
	src, err := p.SeedSource(SeedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Seed(make([]byte, 1024), 1, time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for after.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never resumed after shard 0's assessment (%d bits during it): %+v",
				during.Load(), p.Stats().Shards)
		}
		time.Sleep(time.Millisecond)
	}
	if d := during.Load(); d > rawChunk {
		t.Fatalf("shard 1 gated %d raw bits while shard 0 assessed its new epoch, want at most one chunk (%d)", d, rawChunk)
	}
}

// TestPacingSoak runs a paced two-shard pool, observed by a journal and
// an incident engine, through a random bursty schedule: plain and
// prediction-resistant generates (with reseed interval 2, most of them
// draw seeds), injected alarms, idle gaps in which the shards rest,
// and one Stop/Serve cycle. It checks the chaos invariants throughout:
// every generate succeeds or fails closed with ErrSeedStarved within
// SeedWait + 250 ms, journal sequence numbers rise strictly, incident
// totals add up to the last incident ID, and goroutines return to
// baseline after each Stop. Streaming is off, so that taps refill and
// shards rest within the idle gaps under -race too. Not parallel: the
// goroutine count must belong to this test alone.
func TestPacingSoak(t *testing.T) {
	j, eng, sink := newObserved()
	cfg := drbgTestConfig(2, 55)
	cfg.SeedTapBytes = 1024
	cfg.Health.RecalibrateBackoff = 10 * time.Millisecond
	cfg.Sink = sink
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const seedWait = 100 * time.Millisecond
	dp, err := p.DRBGPool(DRBGConfig{ReseedInterval: 2, BlockBytes: 512, SeedWait: seedWait})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	awaitBaseline := func(extra int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline+extra {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines after Stop, baseline %d", runtime.NumGoroutine(), baseline+extra)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var cursor, lastSeq uint64
	invariants := func() error {
		pg := j.Read(obs.Query{Since: cursor, Shard: obs.Any, Lane: obs.Any})
		for _, ev := range pg.Events {
			if ev.Seq <= lastSeq {
				return fmt.Errorf("journal seq %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
		}
		cursor = pg.LastSeq
		// Incidents may open between the reads: the total must lie
		// between the last IDs read on either side of it.
		_, lo := eng.Incidents(0)
		var sum uint64
		for _, n := range eng.Stats().Totals {
			sum += n
		}
		if _, hi := eng.Incidents(0); sum < lo || sum > hi {
			return fmt.Errorf("incident totals sum to %d, last ID between %d and %d", sum, lo, hi)
		}
		return nil
	}
	done := make(chan struct{})
	checked := make(chan error, 1)
	go func() {
		for {
			select {
			case <-done:
				checked <- invariants()
				return
			case <-time.After(2 * time.Millisecond):
				if err := invariants(); err != nil {
					checked <- err
					return
				}
			}
		}
	}()

	serve := func() {
		t.Helper()
		if err := p.Serve(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	serve()
	r := rng.New(55)
	buf := make([]byte, 2048)
	start := time.Now()
	cycled := false
	for time.Since(start) < 2*time.Second {
		if !cycled && time.Since(start) > time.Second {
			cycled = true
			p.Stop()
			awaitBaseline(1) // the invariant checker
			serve()
		}
		switch k := r.Intn(50); {
		case k == 0:
			_ = p.InjectAlarm(r.Intn(p.NumShards())) // refused unless healthy
		default:
			n, pr := 1+r.Intn(len(buf)), k < 20
			t0 := time.Now()
			_, err := dp.Generate(buf[:n], pr, seedWait)
			if el := time.Since(t0); el > seedWait+250*time.Millisecond {
				t.Fatalf("generate(%d, pr=%v) took %v", n, pr, el)
			}
			if err != nil && !errors.Is(err, ErrSeedStarved) {
				t.Fatalf("generate(%d, pr=%v): %v", n, pr, err)
			}
		}
		select {
		case err := <-checked:
			t.Fatal(err)
		default:
		}
		gap := time.Duration(r.Intn(5)) * time.Millisecond
		if r.Intn(25) == 0 {
			gap = 100 * time.Millisecond
		}
		time.Sleep(gap)
	}
	p.Stop()
	close(done)
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
	awaitBaseline(0)
	st := p.Stats()
	if rest := st.Shards[0].RestSeconds + st.Shards[1].RestSeconds; rest == 0 {
		t.Fatalf("the soak never paced a shard: %+v", st.Shards)
	}
	if _, last := eng.Incidents(0); last == 0 {
		t.Fatal("the soak opened no incident")
	}
}
