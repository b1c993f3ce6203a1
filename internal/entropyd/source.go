package entropyd

import (
	"fmt"

	"repro/internal/multiring"
	"repro/internal/phase"
	"repro/internal/trng"
)

// RawSource is the digitized noise source a shard draws raw (das) bits
// from. Both generator architectures of the repository satisfy it:
// *trng.Generator (the paper's Fig. 4 eRO-TRNG) and
// *multiring.Generator (the Sunar-style multi-ring TRNG of §II).
type RawSource interface {
	NextBit() byte
}

// SourceKind selects the generator architecture behind a shard.
type SourceKind int

// Supported generator architectures.
const (
	// SourceERO is the elementary ring-oscillator TRNG (internal/trng).
	SourceERO SourceKind = iota
	// SourceMultiRing is the Sunar multi-ring TRNG (internal/multiring).
	SourceMultiRing
)

// String names the kind.
func (k SourceKind) String() string {
	switch k {
	case SourceERO:
		return "ero"
	case SourceMultiRing:
		return "multiring"
	default:
		return fmt.Sprintf("SourceKind(%d)", int(k))
	}
}

// SourceConfig describes the entropy source instantiated per shard.
// Model is the PER-RING phase-noise model (as in trng.Config and
// multiring.Config); the relative jitter of an oscillator pair doubles
// the coefficients.
type SourceConfig struct {
	// Kind selects the architecture; default SourceERO.
	Kind SourceKind
	// Model is the per-ring phase-noise model. Required (pool
	// construction fails on the zero value: the health calibration
	// needs physical coefficients).
	Model phase.Model
	// Divider is the eRO sampling divider K (default 64).
	Divider int
	// Mismatch is the eRO relative frequency mismatch (default 0).
	Mismatch float64
	// Rings is the multi-ring ring count R (default 8).
	Rings int
	// SampleRate is the multi-ring output bit rate in Hz
	// (default Model.F0/64).
	SampleRate float64
	// Spread is the multi-ring relative frequency spread
	// (default 2e-3).
	Spread float64
	// Leapfrog runs every shard source on the O(1)-per-window fast
	// path (trng.Config.Leapfrog / multiring.Config.Leapfrog): every
	// window is advanced by closed-form jumps and only the few edges
	// straddling a sampling instant are walked, so a raw bit costs
	// ~10–20 µs whatever the sampling divider (measured on a 2-core
	// Xeon at K = 10⁵ and at trngd's K = 640000). That is what lets a
	// pool serve the paper's calibrated physics (amp = 1) at real
	// throughput. Shards whose rings carry an attack Modulator fall
	// back to exact edge stepping and pay ~0.7 µs per period. Streams
	// stay deterministic in (Config, Seed) and invariant to request
	// chunking and worker counts; they are distribution-exact but not
	// bit-identical to the edge-level reference realization.
	Leapfrog bool
}

// withDefaults fills zero fields.
func (c SourceConfig) withDefaults() SourceConfig {
	if c.Divider == 0 {
		c.Divider = 64
	}
	if c.Rings == 0 {
		c.Rings = 8
	}
	if c.SampleRate == 0 {
		c.SampleRate = c.Model.F0 / 64
	}
	if c.Spread == 0 {
		c.Spread = 2e-3
	}
	return c
}

// validate checks the configuration.
func (c SourceConfig) validate() error {
	if err := c.Model.Validate(); err != nil {
		return fmt.Errorf("entropyd: source model: %w", err)
	}
	switch c.Kind {
	case SourceERO, SourceMultiRing:
		return nil
	default:
		return fmt.Errorf("entropyd: unknown source kind %d", int(c.Kind))
	}
}

// newSource builds one generator instance for the given seed.
func (c SourceConfig) newSource(seed uint64) (RawSource, error) {
	switch c.Kind {
	case SourceERO:
		return trng.New(trng.Config{
			Model:    c.Model,
			Divider:  c.Divider,
			Mismatch: c.Mismatch,
			Seed:     seed,
			Leapfrog: c.Leapfrog,
		})
	case SourceMultiRing:
		return multiring.New(multiring.Config{
			Model:          c.Model,
			Rings:          c.Rings,
			SampleRate:     c.SampleRate,
			RelativeSpread: c.Spread,
			Seed:           seed,
			Leapfrog:       c.Leapfrog,
		})
	default:
		return nil, fmt.Errorf("entropyd: unknown source kind %d", int(c.Kind))
	}
}
