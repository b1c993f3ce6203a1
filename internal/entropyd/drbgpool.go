package entropyd

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/drbg"
	"repro/internal/obs"
)

// DRBGKind selects the SP 800-90A mechanism behind a DRBGPool lane.
type DRBGKind int

// Supported mechanisms.
const (
	// DRBGCTR is CTR_DRBG-AES-256 without derivation function — the
	// fastest expansion path (AES throughput).
	DRBGCTR DRBGKind = iota
	// DRBGHMAC is HMAC_DRBG over SHA-256.
	DRBGHMAC
)

// String names the kind.
func (k DRBGKind) String() string {
	switch k {
	case DRBGCTR:
		return "ctr-drbg-aes256"
	case DRBGHMAC:
		return "hmac-drbg-sha256"
	default:
		return fmt.Sprintf("DRBGKind(%d)", int(k))
	}
}

// DRBGConfig assembles a DRBGPool.
type DRBGConfig struct {
	// Kind selects the mechanism (default DRBGCTR).
	Kind DRBGKind
	// ReseedInterval is the number of Generate calls (= output blocks)
	// each lane serves per seed before it must reseed (default 1024,
	// ceiling 2^48). With the default BlockBytes this is 4 MiB of
	// output per reseed.
	ReseedInterval uint64
	// BlockBytes is the fixed per-lane Generate granularity (default
	// 4096). Requests are sliced out of whole blocks, which is what
	// makes the pool's stream invariant to request chunking: a DRBG's
	// raw output depends on its Generate call boundaries, so the pool
	// pins them.
	BlockBytes int
	// SeedWait bounds how long a single instantiate/reseed waits for
	// seed material before failing closed (default 1s). Generate's
	// caller-supplied wait is capped by it per draw.
	SeedWait time.Duration
	// Seed parameterizes the conditioning seed source.
	Seed SeedConfig
	// Personalization is an optional deployment-level personalization
	// prefix; each lane appends its shard index for domain separation.
	// At most 32 bytes (CTR_DRBG's seedlen bounds the total).
	Personalization []byte
}

// drbgLane is one shard-backed DRBG instance and the block it is
// slicing to requests. d, buf and pos are owned by the Generate call
// holding DRBGPool.mu; the counters are atomics for Stats.
type drbgLane struct {
	shard int
	d     drbg.DRBG
	buf   []byte // block being sliced to requests
	pos   int    // consumed prefix of buf

	generates atomic.Uint64
	reseeds   atomic.Uint64
	failures  atomic.Uint64
	// live and counter mirror (d != nil) and d.ReseedCounter() as
	// atomics so Stats never has to take the pool lock: /healthz and
	// /metrics must stay responsive while a Generate holds the lock
	// waiting out a seed starvation — exactly the incident an
	// operator needs to observe.
	live    atomic.Bool
	counter atomic.Uint64
}

// DRBGPool is the expansion layer over an entropy pool: one SP 800-90A
// DRBG lane per shard, seeded and reseeded through the pool's vetted
// conditioning SeedSource under the same health gates as the raw
// stream. Output is produced in fixed BlockBytes Generate calls,
// rotated round-robin over the live lanes, and sliced to requests — so
// the served stream is bit-identical across request chunkings given
// the same seed schedule, while its RATE is bounded by AES/SHA
// throughput instead of oscillator physics.
//
// Production is sequential and demand-driven: one Generate call at a
// time holds the pool lock and fills each lane's next block when the
// rotation reaches it, so no block is generated speculatively and the
// reseed schedule stays exactly request-shaped — which is what lets
// prediction-resistance accounting stay exact. Each lane reseeds from
// its own shard's tap (lane affinity) while that shard is healthy.
//
// Lanes fail closed: a lane whose reseed interval is exhausted and
// whose reseed cannot obtain seed material (its shard and every
// fallback shard quarantined, unassessed or starved) stops producing
// with ErrSeedStarved rather than stretching the stale seed. The pool
// degrades to the remaining live lanes and recovers automatically once
// recalibrated shards publish a fresh same-epoch assessment.
type DRBGPool struct {
	pool *Pool
	src  *SeedSource
	cfg  DRBGConfig

	mu    sync.Mutex // owns the lanes and the rotation cursor; serializes consumers
	lanes []*drbgLane
	rr    int

	generates   atomic.Uint64
	reseeds     atomic.Uint64
	reseedFails atomic.Uint64
}

// DRBGPool builds the expansion layer over the pool. The pool must
// have a seed tap (Config.SeedTapBytes > 0).
func (p *Pool) DRBGPool(cfg DRBGConfig) (*DRBGPool, error) {
	if cfg.ReseedInterval == 0 {
		cfg.ReseedInterval = 1024
	}
	if cfg.ReseedInterval > drbg.MaxReseedInterval {
		return nil, fmt.Errorf("entropyd: reseed interval %d exceeds 2^48", cfg.ReseedInterval)
	}
	if cfg.BlockBytes == 0 {
		cfg.BlockBytes = 4096
	}
	if cfg.BlockBytes < 16 || cfg.BlockBytes > drbg.MaxRequestBytes {
		return nil, fmt.Errorf("entropyd: drbg block %d outside [16, %d]", cfg.BlockBytes, drbg.MaxRequestBytes)
	}
	if cfg.SeedWait == 0 {
		cfg.SeedWait = time.Second
	}
	if len(cfg.Personalization) > 32 {
		return nil, fmt.Errorf("entropyd: personalization prefix %d bytes exceeds 32", len(cfg.Personalization))
	}
	switch cfg.Kind {
	case DRBGCTR, DRBGHMAC:
	default:
		return nil, fmt.Errorf("entropyd: unknown DRBG kind %d", int(cfg.Kind))
	}
	src, err := p.SeedSource(cfg.Seed)
	if err != nil {
		return nil, err
	}
	d := &DRBGPool{pool: p, src: src, cfg: cfg}
	d.lanes = make([]*drbgLane, len(p.shards))
	for i := range d.lanes {
		d.lanes[i] = &drbgLane{shard: i, buf: make([]byte, 0, cfg.BlockBytes)}
	}
	return d, nil
}

// SeedSourceStats exposes the underlying seed source counters.
func (d *DRBGPool) SeedSourceStats() SeedSourceStats { return d.src.Stats() }

// personalization builds the lane's domain-separation string.
func (d *DRBGPool) personalization(shard int) []byte {
	return append(append([]byte(nil), d.cfg.Personalization...), fmt.Sprintf("/lane-%d", shard)...)
}

// zeroize wipes seed material once the DRBG has absorbed it (§9.4
// hygiene: no full-entropy seed input lingers in the heap).
func zeroize(p []byte) {
	for i := range p {
		p[i] = 0
	}
}

// instantiate brings a lane's DRBG up from full-entropy seed material.
func (d *DRBGPool) instantiate(l *drbgLane, wait time.Duration) error {
	seed := make([]byte, 48) // both mechanisms: 48 bytes (entropy[+nonce] / seedlen)
	if err := d.src.Seed(seed, l.shard, wait); err != nil {
		return err
	}
	defer zeroize(seed)
	var inst drbg.DRBG
	var err error
	switch d.cfg.Kind {
	case DRBGHMAC:
		inst, err = drbg.NewHMAC(seed[:32], seed[32:], d.personalization(l.shard),
			drbg.HMACConfig{ReseedInterval: d.cfg.ReseedInterval})
	case DRBGCTR:
		inst, err = drbg.NewCTR(seed, d.personalization(l.shard),
			drbg.CTRConfig{ReseedInterval: d.cfg.ReseedInterval})
	}
	if err != nil {
		return err
	}
	l.d = inst
	l.live.Store(true)
	d.reseeds.Add(1)
	l.reseeds.Add(1)
	d.pool.emit(obs.Event{Type: obs.TypeDRBGInstantiate, Shard: l.shard, Lane: l.shard,
		Detail: d.cfg.Kind.String()})
	return nil
}

// fillLane refreshes the lane's block in place from its DRBG,
// instantiating or reseeding first when required (or when the caller
// demands prediction resistance). Fails closed: on any seed shortfall
// the lane produces nothing and its block is left empty.
func (d *DRBGPool) fillLane(l *drbgLane, pr bool, wait time.Duration) error {
	l.buf, l.pos = l.buf[:0], 0
	if err := d.seedLane(l, pr, wait); err != nil {
		l.failures.Add(1)
		d.reseedFails.Add(1)
		d.pool.emit(obs.Event{Type: obs.TypeDRBGReseedFail, Shard: l.shard, Lane: l.shard,
			Reason: err.Error()})
		return err
	}
	block := l.buf[:d.cfg.BlockBytes]
	err := l.d.Generate(block, nil)
	l.counter.Store(l.d.ReseedCounter())
	if err != nil {
		// ErrReseedRequired cannot normally reach here (seedLane
		// reseeds first); fail the lane closed regardless.
		l.failures.Add(1)
		d.reseedFails.Add(1)
		return err
	}
	l.buf = block
	d.generates.Add(1)
	l.generates.Add(1)
	return nil
}

// seedLane instantiates the lane's DRBG on first use and reseeds it
// when its interval is exhausted or pr demands fresh entropy.
func (d *DRBGPool) seedLane(l *drbgLane, pr bool, wait time.Duration) error {
	if l.d == nil {
		return d.instantiate(l, wait)
	}
	if !pr && l.d.ReseedCounter() <= d.cfg.ReseedInterval {
		return nil
	}
	seed := make([]byte, l.d.ReseedLen())
	defer zeroize(seed)
	if err := d.src.Seed(seed, l.shard, wait); err != nil {
		return err
	}
	if err := l.d.Reseed(seed, nil); err != nil {
		return err
	}
	d.reseeds.Add(1)
	l.reseeds.Add(1)
	d.pool.emit(obs.Event{Type: obs.TypeDRBGReseed, Shard: l.shard, Lane: l.shard})
	return nil
}

// Generate fills dst with DRBG output and returns the byte count.
// Blocks of BlockBytes are taken round-robin from the live lanes; a
// lane that cannot (re)seed is skipped for the round, and when every
// lane fails in one rotation the call returns short with the last
// lane's error (errors.Is(err, ErrSeedStarved) in the starved case —
// the partial prefix of dst is valid output). With pr set, every lane
// reseeds with fresh conditioned entropy immediately before each
// Generate block that serves the request (SP 800-90A prediction
// resistance), at raw-physics cost. wait bounds the total time spent
// waiting on seed material.
func (d *DRBGPool) Generate(dst []byte, pr bool, wait time.Duration) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if pr {
		// PR covers EVERY byte of the request: buffered remainders were
		// generated before this request's reseeds and are discarded.
		for _, l := range d.lanes {
			l.pos = len(l.buf)
		}
	}
	deadline := time.Now().Add(wait)
	n := 0
	fails := 0
	var lastErr error
	for n < len(dst) {
		l := d.lanes[d.rr]
		if l.pos == len(l.buf) {
			seedWait := time.Until(deadline)
			if seedWait > d.cfg.SeedWait {
				seedWait = d.cfg.SeedWait
			}
			if seedWait < 0 {
				seedWait = 0
			}
			if err := d.fillLane(l, pr, seedWait); err != nil {
				lastErr = err
				d.rr = (d.rr + 1) % len(d.lanes)
				if fails++; fails >= len(d.lanes) {
					d.pool.emit(obs.Event{Type: obs.TypeDRBGFailClosed, Shard: obs.Any, Lane: obs.Any,
						Value: float64(n), Reason: lastErr.Error()})
					return n, lastErr
				}
				continue
			}
			fails = 0
		}
		c := copy(dst[n:], l.buf[l.pos:])
		n += c
		l.pos += c
		if l.pos == len(l.buf) {
			d.rr = (d.rr + 1) % len(d.lanes)
		}
	}
	return n, nil
}

// DRBGLaneStatus is a point-in-time snapshot of one lane.
type DRBGLaneStatus struct {
	Shard        int  `json:"shard"`
	Instantiated bool `json:"instantiated"`
	// ReseedCounter is the lane's Generate calls since its last seed
	// (0 before instantiation).
	ReseedCounter  uint64 `json:"reseed_counter"`
	Generates      uint64 `json:"generates"`
	Reseeds        uint64 `json:"reseeds"`
	ReseedFailures uint64 `json:"reseed_failures"`
	// SeedRetryRounds counts seed-source backoff rounds on draws
	// preferring this lane's shard: how often the heal path had to
	// wait out an empty tap before reseeding.
	SeedRetryRounds uint64 `json:"seed_retry_rounds"`
}

// DRBGStats is a point-in-time snapshot of the expansion layer.
// Reseeds counts every successful seeding event — lane instantiations
// included — and ReseedFailures every failed one (fail-closed: a
// failed lane produced no output for that turn).
type DRBGStats struct {
	Kind            string           `json:"kind"`
	Conditioner     string           `json:"conditioner"`
	ReseedInterval  uint64           `json:"reseed_interval"`
	BlockBytes      int              `json:"block_bytes"`
	Generates       uint64           `json:"generates"`
	Reseeds         uint64           `json:"reseeds"`
	ReseedFailures  uint64           `json:"reseed_failures"`
	SeedDraws       uint64           `json:"seed_draws"`
	SeedStarves     uint64           `json:"seed_starves"`
	SeedRetryRounds uint64           `json:"seed_retry_rounds"`
	Lanes           []DRBGLaneStatus `json:"lanes"`
}

// Stats snapshots the pool counters. It reads only atomics — never
// the pool lock — so /healthz and /metrics stay responsive while a
// Generate call holds the lock waiting out a seed starvation (the
// exact situation an operator inspects).
func (d *DRBGPool) Stats() DRBGStats {
	ss := d.src.Stats()
	st := DRBGStats{
		Kind:            d.cfg.Kind.String(),
		Conditioner:     ss.Conditioner,
		ReseedInterval:  d.cfg.ReseedInterval,
		BlockBytes:      d.cfg.BlockBytes,
		Generates:       d.generates.Load(),
		Reseeds:         d.reseeds.Load(),
		ReseedFailures:  d.reseedFails.Load(),
		SeedDraws:       ss.Draws,
		SeedStarves:     ss.Starves,
		SeedRetryRounds: ss.RetryRounds,
		Lanes:           make([]DRBGLaneStatus, len(d.lanes)),
	}
	for i, l := range d.lanes {
		st.Lanes[i] = DRBGLaneStatus{
			Shard:           l.shard,
			Instantiated:    l.live.Load(),
			ReseedCounter:   l.counter.Load(),
			Generates:       l.generates.Load(),
			Reseeds:         l.reseeds.Load(),
			ReseedFailures:  l.failures.Load(),
			SeedRetryRounds: d.src.RetryRounds(l.shard),
		}
	}
	return st
}
