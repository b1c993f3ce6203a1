package entropyd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestDRBGConcurrentBitIdentical pins that serialized concurrent
// callers consume the rotation atomically: many concurrent Generate
// callers, each request spanning several blocks, must collectively
// serve the exact byte stream a single sequential caller gets from an
// identically-seeded pool. Each Generate call atomically consumes the
// next len(dst) bytes of the rotation stream, so the concurrent
// chunks — in whatever order the callers won the lock — must be a
// permutation of the sequential reference chunks.
func TestDRBGConcurrentBitIdentical(t *testing.T) {
	t.Parallel()
	const (
		shards  = 3
		block   = 512
		chunk   = 1280 // 2.5 blocks: stresses stitching and remainders
		workers = 8
		perW    = 12
	)
	newDP := func() *DRBGPool {
		p, err := New(drbgTestConfig(shards, 29))
		if err != nil {
			t.Fatal(err)
		}
		primeAssessments(t, p)
		dp, err := p.DRBGPool(DRBGConfig{BlockBytes: block})
		if err != nil {
			t.Fatal(err)
		}
		return dp
	}

	// Sequential jobs=1 reference.
	ref := newDP()
	want := make(map[string]int, workers*perW)
	for i := 0; i < workers*perW; i++ {
		buf := make([]byte, chunk)
		if n, err := ref.Generate(buf, false, time.Second); err != nil || n != chunk {
			t.Fatalf("reference chunk %d: %d, %v", i, n, err)
		}
		want[string(buf)]++
	}

	// Concurrent run against a twin pool.
	dp := newDP()
	var mu sync.Mutex
	got := make(map[string]int, workers*perW)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				buf := make([]byte, chunk)
				n, err := dp.Generate(buf, false, 5*time.Second)
				if err != nil || n != chunk {
					errs <- fmt.Errorf("concurrent generate: %d, %v", n, err)
					return
				}
				mu.Lock()
				got[string(buf)]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("concurrent run produced %d distinct chunks, reference %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("chunk multiplicity mismatch: reference %d, concurrent %d", n, got[k])
		}
	}
	// Same production accounting: identical per-lane call counts.
	rs, cs := ref.Stats(), dp.Stats()
	if rs.Generates != cs.Generates || rs.Reseeds != cs.Reseeds {
		t.Errorf("accounting diverged: sequential %d/%d, concurrent %d/%d generates/reseeds",
			rs.Generates, rs.Reseeds, cs.Generates, cs.Reseeds)
	}
}

// TestDRBGConcurrentQuarantineHeal drives concurrent multi-block
// callers while EVERY shard is quarantined mid-stream: each caller
// must land on ErrSeedStarved (fail closed — never a stale-seed
// stream), and after recalibration plus a fresh same-epoch assessment
// the same callers succeed again.
func TestDRBGConcurrentQuarantineHeal(t *testing.T) {
	t.Parallel()
	const (
		shards  = 3
		block   = 512
		chunk   = 3 * block
		workers = 6
	)
	p, err := New(drbgTestConfig(shards, 31))
	if err != nil {
		t.Fatal(err)
	}
	primeAssessments(t, p)
	dp, err := p.DRBGPool(DRBGConfig{ReseedInterval: 4, BlockBytes: block, SeedWait: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := dp.Generate(make([]byte, shards*block), false, time.Second); err != nil || n != shards*block {
		t.Fatalf("warmup: %d, %v", n, err)
	}

	started := make(chan struct{})
	var once sync.Once
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				once.Do(func() { close(started) })
				buf := make([]byte, chunk)
				if _, err := dp.Generate(buf, false, 50*time.Millisecond); err != nil {
					errs <- err
					return
				}
				if i > 10_000 {
					errs <- errors.New("quarantined pool never failed closed")
					return
				}
			}
		}()
	}
	<-started
	for i := 0; i < shards; i++ {
		if err := p.InjectAlarm(i); err != nil {
			t.Fatal(err)
		}
	}
	// The injected alarms trip on the next raw production attempt.
	if _, err := p.Fill(make([]byte, 1024)); !errors.Is(err, ErrStarved) {
		t.Fatalf("fill after injection: %v, want ErrStarved", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrSeedStarved) {
			t.Fatalf("caller ended with %v, want ErrSeedStarved", err)
		}
	}

	// Heal: recalibrate, let fresh-epoch assessments complete, and the
	// same concurrent load succeeds end to end.
	if healed := p.Recalibrate(context.Background()); healed != shards {
		t.Fatalf("Recalibrate healed %d, want %d", healed, shards)
	}
	primeAssessments(t, p)
	var wg2 sync.WaitGroup
	errs2 := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			buf := make([]byte, chunk)
			if n, err := dp.Generate(buf, false, 5*time.Second); err != nil || n != chunk {
				errs2 <- fmt.Errorf("post-heal generate: %d, %v", n, err)
			}
		}()
	}
	wg2.Wait()
	close(errs2)
	for err := range errs2 {
		t.Fatal(err)
	}
}
