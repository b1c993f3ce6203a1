package entropyd

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/conditioner"
)

// drbgTestConfig is the standard scripted-source pool for expansion-
// layer tests: fast assessment duty cycle, seed tap on.
func drbgTestConfig(shards int, seed uint64) Config {
	cfg := Config{
		Shards:       shards,
		Seed:         seed,
		NewSource:    goodScript,
		Health:       assessHealth(0.3),
		SeedTapBytes: 4096,
	}
	return cfg
}

// primeAssessments pushes enough output through the pool that every
// shard completes at least one assessment and its tap holds a draw.
func primeAssessments(t *testing.T, p *Pool) {
	t.Helper()
	buf := make([]byte, p.NumShards()*4096)
	if _, err := p.Fill(buf); err != nil {
		t.Fatalf("prime fill: %v", err)
	}
	for i := 0; i < p.NumShards(); i++ {
		if p.Shard(i).LastAssessment() == nil {
			t.Fatalf("shard %d: no assessment after priming", i)
		}
	}
}

// TestSeedSourceValidation: the tap and the assessment are hard
// prerequisites of the seed path.
func TestSeedSourceValidation(t *testing.T) {
	t.Parallel()
	// No tap configured.
	p, err := New(Config{Shards: 1, NewSource: goodScript, Health: assessHealth(0)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SeedSource(SeedConfig{}); err == nil {
		t.Error("SeedSource accepted a pool without a tap")
	}
	// Tap without assessment is rejected at pool construction.
	cfg := Config{Shards: 1, NewSource: goodScript, SeedTapBytes: 4096,
		Health: HealthConfig{DisableStartup: true, DisableMonitor: true, DisableAssess: true}}
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a seed tap with assessment disabled")
	}
	// Undersized tap.
	cfg = drbgTestConfig(1, 1)
	cfg.SeedTapBytes = 8
	if _, err := New(cfg); err == nil {
		t.Error("New accepted a tap below one packed raw chunk")
	}
	// Bad seed-source knobs.
	p2, err := New(drbgTestConfig(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.SeedSource(SeedConfig{MinEntropy: 1.5}); err == nil {
		t.Error("entropy floor >= 1 accepted")
	}
	if _, err := p2.SeedSource(SeedConfig{HeadroomBits: -1}); err == nil {
		t.Error("negative headroom accepted")
	}
	// Bad DRBG knobs.
	if _, err := p2.DRBGPool(DRBGConfig{Kind: DRBGKind(9)}); err == nil {
		t.Error("unknown DRBG kind accepted")
	}
	if _, err := p2.DRBGPool(DRBGConfig{BlockBytes: 8}); err == nil {
		t.Error("undersized block accepted")
	}
	if _, err := p2.DRBGPool(DRBGConfig{Personalization: make([]byte, 33)}); err == nil {
		t.Error("oversized personalization accepted")
	}
}

// TestSeedStarvesBeforeFirstAssessment: a fresh pool (healthy, but no
// assessment yet) must NOT hand out seed material — the accounting
// input does not exist.
func TestSeedStarvesBeforeFirstAssessment(t *testing.T) {
	t.Parallel()
	p, err := New(drbgTestConfig(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	src, err := p.SeedSource(SeedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	seed := make([]byte, 48)
	if err := src.Seed(seed, -1, 20*time.Millisecond); !errors.Is(err, ErrSeedStarved) {
		t.Fatalf("Seed before assessment: %v, want ErrSeedStarved", err)
	}
	if st := src.Stats(); st.Starves != 1 || st.Draws != 0 {
		t.Errorf("stats after starve: %+v", st)
	}
}

// TestSeedSourceDrawsWithAccounting: once assessed, draws succeed,
// consume tap bytes proportional to the assessed entropy, and the
// material is non-degenerate.
func TestSeedSourceDrawsWithAccounting(t *testing.T) {
	t.Parallel()
	p, err := New(drbgTestConfig(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	primeAssessments(t, p)
	for _, cond := range []conditioner.Func{nil, mustCBCMAC(t)} {
		src, err := p.SeedSource(SeedConfig{Cond: cond})
		if err != nil {
			t.Fatal(err)
		}
		a := make([]byte, 64)
		b := make([]byte, 64)
		if err := src.Seed(a, 0, time.Second); err != nil {
			t.Fatalf("seed draw: %v", err)
		}
		if err := src.Seed(b, 0, time.Second); err != nil {
			t.Fatalf("second draw: %v", err)
		}
		if bytes.Equal(a, b) {
			t.Error("consecutive seed draws identical")
		}
		if bytes.Equal(a, make([]byte, 64)) {
			t.Error("seed draw all zero")
		}
		if st := src.Stats(); st.Draws == 0 {
			t.Errorf("no draws recorded: %+v", st)
		}
	}
	st := p.Stats()
	used := st.Shards[0].SeedBytesUsed + st.Shards[1].SeedBytesUsed
	if used == 0 {
		t.Error("no tap bytes consumed")
	}
	// Per-block draw cost: at assessed h the input is
	// ceil((n_out+64)/h) bits; h is clamped to <= 1, so at least
	// (256+64)/8 = 40 bytes per 256-bit block must have been consumed.
	if used < 40 {
		t.Errorf("tap consumption %d below the minimum vetted draw", used)
	}
}

func mustCBCMAC(t *testing.T) conditioner.Func {
	t.Helper()
	f, err := conditioner.NewCBCMACAES256(nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSeedTapIsPassive: the tap (like the assessment collector) only
// mirrors raw bits — pool output is bit-identical with the tap on and
// off, and draws never perturb the output stream.
func TestSeedTapIsPassive(t *testing.T) {
	t.Parallel()
	fill := func(tap bool, draw bool) []byte {
		cfg := drbgTestConfig(2, 7)
		if !tap {
			cfg.SeedTapBytes = 0
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 8192)
		if _, err := p.Fill(buf); err != nil {
			t.Fatal(err)
		}
		if draw {
			src, err := p.SeedSource(SeedConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if err := src.Seed(make([]byte, 96), -1, time.Second); err != nil {
				t.Fatal(err)
			}
		}
		tail := make([]byte, 4096)
		if _, err := p.Fill(tail); err != nil {
			t.Fatal(err)
		}
		return append(buf, tail...)
	}
	base := fill(false, false)
	if !bytes.Equal(base, fill(true, false)) {
		t.Error("enabling the tap changed the output stream")
	}
	if !bytes.Equal(base, fill(true, true)) {
		t.Error("seed draws changed the output stream")
	}
}

// TestDRBGPoolChunkingInvariance: the served DRBG stream is a pure
// function of (config, seed schedule) — one big request and many
// ragged small ones yield the identical byte stream, for both
// mechanisms.
func TestDRBGPoolChunkingInvariance(t *testing.T) {
	t.Parallel()
	for _, kind := range []DRBGKind{DRBGCTR, DRBGHMAC} {
		streams := make([][]byte, 2)
		for v, chunks := range [][]int{{24576}, {1, 255, 4096, 13, 7000, 512, 100, 12587, 12}} {
			p, err := New(drbgTestConfig(3, 11))
			if err != nil {
				t.Fatal(err)
			}
			primeAssessments(t, p)
			dp, err := p.DRBGPool(DRBGConfig{Kind: kind, BlockBytes: 1024})
			if err != nil {
				t.Fatal(err)
			}
			var out []byte
			for _, c := range chunks {
				buf := make([]byte, c)
				n, err := dp.Generate(buf, false, time.Second)
				if err != nil || n != c {
					t.Fatalf("kind %v: Generate(%d) = %d, %v", kind, c, n, err)
				}
				out = append(out, buf...)
			}
			streams[v] = out
		}
		if !bytes.Equal(streams[0], streams[1]) {
			t.Errorf("kind %v: chunked stream differs from whole-request stream", kind)
		}
	}
}

// TestDRBGKindsAndLanesSeparate: the two mechanisms and distinct lanes
// produce unrelated streams (domain separation sanity).
func TestDRBGKindsAndLanesSeparate(t *testing.T) {
	t.Parallel()
	gen := func(kind DRBGKind) []byte {
		p, err := New(drbgTestConfig(2, 13))
		if err != nil {
			t.Fatal(err)
		}
		primeAssessments(t, p)
		dp, err := p.DRBGPool(DRBGConfig{Kind: kind, BlockBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 2048)
		if n, err := dp.Generate(buf, false, time.Second); err != nil || n != len(buf) {
			t.Fatalf("Generate = %d, %v", n, err)
		}
		return buf
	}
	ctr, hm := gen(DRBGCTR), gen(DRBGHMAC)
	if bytes.Equal(ctr, hm) {
		t.Error("CTR and HMAC streams identical")
	}
	// Lane blocks within one stream must differ (per-lane
	// personalization and private seed draws).
	if bytes.Equal(ctr[:512], ctr[512:1024]) {
		t.Error("adjacent lane blocks identical")
	}
}

// TestDRBGPredictionResistance: pr=true forces a fresh conditioned
// seed before every served block — observable as reseed counters
// advancing block-by-block and extra tap consumption.
func TestDRBGPredictionResistance(t *testing.T) {
	t.Parallel()
	p, err := New(drbgTestConfig(2, 17))
	if err != nil {
		t.Fatal(err)
	}
	primeAssessments(t, p)
	dp, err := p.DRBGPool(DRBGConfig{BlockBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	// Leave a PARTIALLY consumed non-pr block buffered: the pr request
	// must not serve its remainder (that state predates the request).
	if n, err := dp.Generate(make([]byte, 100), false, time.Second); err != nil || n != 100 {
		t.Fatalf("warmup: %d, %v", n, err)
	}
	st0 := dp.Stats()
	buf := make([]byte, 1024)
	if n, err := dp.Generate(buf, true, time.Second); err != nil || n != len(buf) {
		t.Fatalf("pr generate: %d, %v", n, err)
	}
	st1 := dp.Stats()
	wantBlocks := uint64(len(buf) / 256)
	if got := st1.Reseeds - st0.Reseeds; got != wantBlocks {
		t.Errorf("pr reseeds = %d, want %d (one per served block, stale remainder discarded)", got, wantBlocks)
	}
	if st1.Generates-st0.Generates != wantBlocks {
		t.Errorf("pr generates advanced %d, want %d", st1.Generates-st0.Generates, wantBlocks)
	}
}

// TestDRBGReseedUnderQuarantine is the ISSUE-5 fail-closed satellite:
// with EVERY shard quarantined, already-seeded lanes keep serving
// until their reseed interval is exhausted, then the pool fails closed
// with ErrSeedStarved (no stale-seed reuse). Recalibration alone does
// NOT restore service — the new epoch has no assessment yet, and
// pre-quarantine assessments must not count — but once raw bits flow
// and a fresh same-epoch assessment completes, the expansion layer
// heals without intervention.
func TestDRBGReseedUnderQuarantine(t *testing.T) {
	t.Parallel()
	const (
		shards   = 2
		interval = 2
		block    = 1024
	)
	p, err := New(drbgTestConfig(shards, 19))
	if err != nil {
		t.Fatal(err)
	}
	primeAssessments(t, p)
	dp, err := p.DRBGPool(DRBGConfig{ReseedInterval: interval, BlockBytes: block, SeedWait: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Seed every lane (one block each) while healthy.
	warm := make([]byte, shards*block)
	if n, err := dp.Generate(warm, false, time.Second); err != nil || n != len(warm) {
		t.Fatalf("warmup: %d, %v", n, err)
	}

	// Quarantine the whole pool.
	for i := 0; i < shards; i++ {
		if err := p.InjectAlarm(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Fill(make([]byte, 1024)); !errors.Is(err, ErrStarved) {
		t.Fatalf("fill after injection: %v, want ErrStarved", err)
	}
	if p.Healthy() != 0 {
		t.Fatalf("%d shards still healthy", p.Healthy())
	}

	// The seeded lanes owe at most (interval − 1) more blocks each;
	// the DRBG keeps its §9.3 guarantee until the reseed deadline,
	// then fails closed.
	served := 0
	var genErr error
	for i := 0; i < shards*interval+2; i++ {
		buf := make([]byte, block)
		n, err := dp.Generate(buf, false, 50*time.Millisecond)
		served += n
		if err != nil {
			genErr = err
			break
		}
	}
	if !errors.Is(genErr, ErrSeedStarved) {
		t.Fatalf("generate under total quarantine ended with %v, want ErrSeedStarved", genErr)
	}
	if max := shards * (interval - 1) * block; served > max {
		t.Errorf("served %d bytes after quarantine, deadline allows at most %d", served, max)
	}
	// Fail closed stays closed.
	if n, err := dp.Generate(make([]byte, 64), false, 20*time.Millisecond); err == nil || n != 0 {
		t.Fatalf("post-deadline generate: %d, %v; want 0 bytes and an error", n, err)
	}

	// Recalibration re-admits the shards, but the fresh epoch has no
	// assessment: seed material must still be refused (the previous
	// epoch's assessment describes a torn-down source build).
	if healed := p.Recalibrate(context.Background()); healed != shards {
		t.Fatalf("Recalibrate healed %d, want %d", healed, shards)
	}
	if n, err := dp.Generate(make([]byte, 64), false, 20*time.Millisecond); !errors.Is(err, ErrSeedStarved) || n != 0 {
		t.Fatalf("generate after heal but before assessment: %d, %v; want ErrSeedStarved", n, err)
	}

	// Raw bits flow again; assessments complete; the layer heals.
	primeAssessments(t, p)
	out := make([]byte, shards*block)
	if n, err := dp.Generate(out, false, time.Second); err != nil || n != len(out) {
		t.Fatalf("generate after recovery: %d, %v", n, err)
	}
	st := dp.Stats()
	if st.ReseedFailures == 0 {
		t.Error("no reseed failures recorded across the quarantine")
	}
	for _, l := range st.Lanes {
		if a := p.Shard(l.Shard).LastAssessment(); a == nil || a.Epoch != 1 {
			t.Errorf("lane %d healed without a fresh epoch-1 assessment: %+v", l.Shard, a)
		}
	}
}

// TestDRBGServeMode: the expansion layer rides a SERVING pool — the
// producers gate until taps are full and assessed, rest, and wake when
// seed draws free tap space, with no raw consumer — and an injected
// quarantine during service degrades the DRBG pool instead of failing
// it.
func TestDRBGServeMode(t *testing.T) {
	t.Parallel()
	cfg := drbgTestConfig(2, 23)
	cfg.Health.RecalibrateBackoff = 10 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	dp, err := p.DRBGPool(DRBGConfig{BlockBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Serve-mode producers must assess and fill taps on their own
	// (unpaced until the first assessment); allow generous wall time
	// on slow runners.
	deadline := time.Now().Add(30 * time.Second)
	buf := make([]byte, 4096)
	for {
		n, err := dp.Generate(buf, false, 500*time.Millisecond)
		if err == nil && n == len(buf) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drbg output never became available: %d, %v", n, err)
		}
	}
	// Quarantine one shard mid-service: the other lane keeps serving.
	if err := p.InjectAlarm(0); err != nil {
		t.Fatal(err)
	}
	if n, err := dp.Generate(buf, false, 2*time.Second); err != nil || n != len(buf) {
		t.Fatalf("generate with one shard quarantined: %d, %v", n, err)
	}
}

// TestTappedPoolServesWithoutRing: a serving tapped pool has no raw
// output path — ReadBuffered refuses it and no shard buffers bytes —
// yet its producers advance the gates, the assessment and the tap
// (until the tap is full and assessed, and again after seed draws),
// and a DRBGPool over it serves.
func TestTappedPoolServesWithoutRing(t *testing.T) {
	t.Parallel()
	p, err := New(drbgTestConfig(2, 41))
	if err != nil {
		t.Fatal(err)
	}
	before := p.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := p.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if _, err := p.ReadBuffered(make([]byte, 64), 10*time.Millisecond); err != ErrNotServing {
		t.Fatalf("ReadBuffered on a tapped pool: %v, want ErrNotServing", err)
	}
	dp, err := p.DRBGPool(DRBGConfig{BlockBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	buf := make([]byte, 4096)
	for {
		n, err := dp.Generate(buf, false, 500*time.Millisecond)
		if err == nil && n == len(buf) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drbg output never became available: %d, %v", n, err)
		}
	}
	for {
		advanced := true
		for i, sh := range p.Stats().Shards {
			if sh.Buffered != 0 {
				t.Fatalf("shard %d buffers %d raw bytes", i, sh.Buffered)
			}
			b := before.Shards[i]
			if sh.RawBits <= b.RawBits || sh.TapBytes <= b.TapBytes || sh.AssessRuns <= b.AssessRuns {
				advanced = false
			}
		}
		if advanced {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("surveillance stalled: before %+v, now %+v", before.Shards, p.Stats().Shards)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
