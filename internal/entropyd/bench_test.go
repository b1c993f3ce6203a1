package entropyd

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sp90b"
)

// BenchmarkPoolThroughput measures the pool's batch hot path in
// bytes/sec (the SetBytes rate) at 1, 4 and NumCPU shards: the
// scaling trajectory later performance PRs optimize against. The
// source is the jitter-amplified paper model at divider 16, with the
// full health battery (tot + startup + thermal monitor) engaged — the
// gating cost is part of the serving path, so it belongs in the
// measurement.
func BenchmarkPoolThroughput(b *testing.B) {
	shardCounts := []int{1, 4, runtime.NumCPU()}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			p, err := New(Config{
				Shards: shards,
				Seed:   1,
				Source: SourceConfig{Kind: SourceERO, Model: testModel(), Divider: 16},
				Health: HealthConfig{MonitorWindow: 16},
			})
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 1<<15)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := p.Fill(buf); err != nil || n != len(buf) {
					b.Fatalf("Fill = (%d, %v)", n, err)
				}
			}
		})
	}
}

// BenchmarkLiveAssessmentPool is BenchmarkPoolThroughput with the
// streaming surveillance tracker inline on every shard: the fleet-wide
// serving cost of continuous live assessment, to be read against the
// plain-battery baseline (the delta is StreamNsPerBit × 8 raw bits per
// output byte).
func BenchmarkLiveAssessmentPool(b *testing.B) {
	p, err := New(Config{
		Shards: 4,
		Seed:   1,
		Source: SourceConfig{Kind: SourceERO, Model: testModel(), Divider: 16},
		Health: HealthConfig{MonitorWindow: 16, StreamWindow: sp90b.MinBits},
	})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<15)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := p.Fill(buf); err != nil || n != len(buf) {
			b.Fatalf("Fill = (%d, %v)", n, err)
		}
	}
}

// benchDRBGPool builds a seeded, primed 4-lane expansion layer for the
// throughput benchmarks (scripted sources stand in for the physics so
// the number isolates the serving path; one seed per lane for the whole
// run — the benchmark measures expansion, not physics).
func benchDRBGPool(b *testing.B, kind DRBGKind) *DRBGPool {
	b.Helper()
	p, err := New(Config{
		Shards:       4,
		Seed:         3,
		NewSource:    goodScript,
		Health:       assessHealth(0),
		SeedTapBytes: 1 << 15,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Prime: every shard assessed, every tap charged.
	if _, err := p.Fill(make([]byte, 4*4096)); err != nil {
		b.Fatal(err)
	}
	dp, err := p.DRBGPool(DRBGConfig{Kind: kind, ReseedInterval: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	// Instantiate every lane outside the timed region.
	if n, err := dp.Generate(make([]byte, 4*4096), false, time.Second); err != nil || n != 4*4096 {
		b.Fatalf("warmup = (%d, %v)", n, err)
	}
	return dp
}

// BenchmarkPoolDRBGThroughput measures the expansion layer end to end:
// DRBGPool.Generate over a seeded pool, in bytes/sec, for both
// mechanisms, at GOMAXPROCS=1 and =NumCPU with b.RunParallel driving
// one caller per proc. Together with BenchmarkPoolThroughput (the raw
// calibrated path) it shows the output rate bounded by AES/SHA
// throughput instead of oscillator physics. Requests span 16 blocks
// and callers take turns on the pool lock, so the gomaxprocs split
// shows what lock handoff costs, not parallel production.
func BenchmarkPoolDRBGThroughput(b *testing.B) {
	maxProcs := runtime.NumCPU()
	for _, kind := range []DRBGKind{DRBGCTR, DRBGHMAC} {
		for i, procs := range []int{1, maxProcs} {
			// Stable sub-benchmark names across hosts: "max" is
			// NumCPU, whatever it is (it can equal 1 in a container).
			label := fmt.Sprintf("%s/gomaxprocs=1", kind)
			if i == 1 {
				label = fmt.Sprintf("%s/gomaxprocs=max", kind)
			}
			procs := procs
			b.Run(label, func(b *testing.B) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dp := benchDRBGPool(b, kind)
				b.SetBytes(1 << 16)
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					buf := make([]byte, 1<<16)
					for pb.Next() {
						if n, err := dp.Generate(buf, false, time.Second); err != nil || n != len(buf) {
							b.Fatalf("Generate = (%d, %v)", n, err)
						}
					}
				})
			})
		}
	}
}

// nullDRBG is a DRBG whose Generate is a pure memory copy: swapped
// into the lanes, it exposes the rotation's own slice-and-copy cost —
// the rate Generate sustains when block production costs nothing.
type nullDRBG struct{ pattern [4096]byte }

func (n *nullDRBG) Name() string                            { return "null" }
func (n *nullDRBG) SeedLen() int                            { return 48 }
func (n *nullDRBG) ReseedLen() int                          { return 48 }
func (n *nullDRBG) Reseed(entropy, additional []byte) error { return nil }
func (n *nullDRBG) Generate(out, additional []byte) error {
	for off := 0; off < len(out); {
		off += copy(out[off:], n.pattern[:])
	}
	return nil
}
func (n *nullDRBG) ReseedCounter() uint64 { return 1 }
func (n *nullDRBG) Uninstantiate()        {}

// BenchmarkPoolDRBGConsumerCeiling measures the rotation with free
// block production (null lanes): the ceiling the pool lock and the
// copies impose above the crypto.
func BenchmarkPoolDRBGConsumerCeiling(b *testing.B) {
	dp := benchDRBGPool(b, DRBGCTR)
	for _, l := range dp.lanes {
		l.d = &nullDRBG{}
	}
	buf := make([]byte, 1<<16)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := dp.Generate(buf, false, time.Second); err != nil || n != len(buf) {
			b.Fatalf("Generate = (%d, %v)", n, err)
		}
	}
}

// BenchmarkDRBGSingleLane is one real lane (a single-shard pool): the
// per-lane production rate, which BenchmarkPoolDRBGThroughput should
// match because the lanes of a pool generate in turn.
func BenchmarkDRBGSingleLane(b *testing.B) {
	p, err := New(Config{
		Shards:       1,
		Seed:         3,
		NewSource:    goodScript,
		Health:       assessHealth(0),
		SeedTapBytes: 1 << 15,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Fill(make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	dp, err := p.DRBGPool(DRBGConfig{Kind: DRBGCTR, ReseedInterval: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	if n, err := dp.Generate(buf, false, time.Second); err != nil || n != len(buf) {
		b.Fatalf("warmup = (%d, %v)", n, err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := dp.Generate(buf, false, time.Second); err != nil || n != len(buf) {
			b.Fatalf("Generate = (%d, %v)", n, err)
		}
	}
}

// BenchmarkShardProduce isolates one shard's gated generation (no
// pool fan-out): the per-lane cost floor.
func BenchmarkShardProduce(b *testing.B) {
	p, err := New(Config{
		Shards: 1,
		Seed:   2,
		Source: SourceConfig{Kind: SourceERO, Model: testModel(), Divider: 16},
		Health: HealthConfig{MonitorWindow: 16},
	})
	if err != nil {
		b.Fatal(err)
	}
	s := p.Shard(0)
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := s.produce(buf); n != len(buf) {
			b.Fatalf("produce = %d", n)
		}
	}
}
