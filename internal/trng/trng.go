// Package trng implements the elementary ring-oscillator TRNG
// (eRO-TRNG) of paper Fig. 4: two classical ring oscillators, a
// frequency divider and a D flip-flop. The output of Osc1 is sampled at
// (divided) rising edges of Osc2; the raw random analog signal (RRAS) is
// the relative jitter between the rings, and the digitizer is the DFF.
//
// Following AIS31 terminology (paper Fig. 1), the package separates the
// entropy source (the oscillator pair), the digitizer (the sampler) and
// leaves post-processing to internal/postproc.
package trng

import (
	"fmt"

	"repro/internal/osc"
	"repro/internal/phase"
)

// Config describes an eRO-TRNG instance.
type Config struct {
	// Model is the per-oscillator phase-noise model. Both rings use
	// it (the paper's rings are nominally identical).
	Model phase.Model
	// Divider K divides Osc2: one output bit is produced every K
	// Osc2 periods. Larger K accumulates more relative jitter per
	// bit and therefore more entropy per bit.
	Divider int
	// Mismatch is the relative frequency mismatch between the rings
	// (process variation). The mean number of Osc1 half-periods per
	// sample interval shifts accordingly, moving the sampling point
	// across the waveform.
	Mismatch float64
	// Seed seeds the two oscillators.
	Seed uint64
	// Leapfrog selects the O(1)-per-bit fast path: each bit jumps
	// Osc2 across the whole divider window in closed form
	// (osc.Leapfrog) and jumps Osc1 to just short of the sampling
	// instant (osc.LeapfrogToBefore), walking only the few edges that
	// straddle it exactly for the DFF phase interpolation. A bit costs
	// ~10–20 µs at any divider (K = 10⁵ and the served K = 640000
	// alike, on a 2-core Xeon). The bit stream is
	// exact in distribution and deterministic in (Config, Seed) —
	// invariant to how reads are chunked — but is a different
	// realization than the edge-level path, which remains the golden
	// reference. Rings that cannot leapfrog (installed Modulator,
	// Kasdin flicker backend) transparently fall back to edge stepping
	// inside internal/osc.
	Leapfrog bool
	// OscOptions forwards simulator options (flicker generator
	// selection, attack modulators) to both rings.
	OscOptions osc.Options
}

// Generator is a running eRO-TRNG.
type Generator struct {
	pair    *osc.Pair
	divider int
	leap    bool
	// sampled-oscillator waveform tracking: time of the last Osc1
	// rising edge and the period that started there.
	lastEdge1   float64
	nextEdge1   float64
	bitsEmitted uint64
}

// New builds the eRO-TRNG.
func New(cfg Config) (*Generator, error) {
	if cfg.Divider < 1 {
		return nil, fmt.Errorf("trng: divider %d must be >= 1", cfg.Divider)
	}
	opt := cfg.OscOptions
	opt.Seed = cfg.Seed
	pair, err := osc.NewPair(cfg.Model, cfg.Mismatch, opt)
	if err != nil {
		return nil, err
	}
	g := &Generator{pair: pair, divider: cfg.Divider, leap: cfg.Leapfrog}
	g.lastEdge1 = 0
	g.nextEdge1 = pair.Osc1.NextEdge()
	return g, nil
}

// Pair exposes the underlying oscillators (for attack experiments that
// need to manipulate them mid-run).
func (g *Generator) Pair() *osc.Pair { return g.pair }

// Divider returns the configured sampling divider.
func (g *Generator) Divider() int { return g.divider }

// BitsEmitted returns the number of raw bits produced so far.
func (g *Generator) BitsEmitted() uint64 { return g.bitsEmitted }

// NextBit advances Osc2 by Divider periods and samples the Osc1 square
// waveform at the resulting edge time: the bit is 1 during the first
// half-period after each Osc1 rising edge (the 2π-periodic square
// function P of paper eq. 2). In leapfrog mode both advances are
// closed-form jumps plus a short exact walk (see Config.Leapfrog).
func (g *Generator) NextBit() byte {
	if g.leap {
		g.pair.Osc2.Leapfrog(g.divider)
	} else {
		for i := 0; i < g.divider; i++ {
			g.pair.Osc2.NextPeriod()
		}
	}
	t := g.pair.Osc2.Now()
	if g.leap && g.nextEdge1 <= t {
		// Osc1's cursor sits exactly on the already-pulled nextEdge1
		// (the generator reads no further ahead), so jump it to just
		// short of the sampling instant; the walk below closes the
		// remaining slack exactly.
		if j := g.pair.Osc1.LeapfrogToBefore(t); j > 0 {
			g.lastEdge1 = g.pair.Osc1.Now()
			g.nextEdge1 = g.pair.Osc1.NextEdge()
		}
	}
	for g.nextEdge1 <= t {
		g.lastEdge1 = g.nextEdge1
		g.nextEdge1 = g.pair.Osc1.NextEdge()
	}
	g.bitsEmitted++
	// Fractional position inside the current Osc1 period.
	frac := (t - g.lastEdge1) / (g.nextEdge1 - g.lastEdge1)
	if frac < 0.5 {
		return 1
	}
	return 0
}

// Bits produces n raw bits.
func (g *Generator) Bits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = g.NextBit()
	}
	return out
}

// Bytes packs 8·n raw bits MSB-first into n bytes.
func (g *Generator) Bytes(n int) []byte {
	out := make([]byte, n)
	g.mustRead(out)
	return out
}

// Read implements io.Reader: it fills p entirely with packed raw bits
// (8 bits per byte, MSB-first) and never fails — the simulated source
// cannot run dry. It lets a generator compose directly with the
// standard library (io.ReadFull, io.CopyN, bufio) and with the
// internal/entropyd serving layer.
func (g *Generator) Read(p []byte) (int, error) {
	g.mustRead(p)
	return len(p), nil
}

// mustRead fills p with packed raw bits.
func (g *Generator) mustRead(p []byte) {
	for i := range p {
		var b byte
		for k := 0; k < 8; k++ {
			b = b<<1 | g.NextBit()
		}
		p[i] = b
	}
}

// AccumulatedJitterVariance returns the variance of the relative phase
// accumulated between two consecutive samples, expressed in seconds².
// It is the model-level quantity that determines entropy per bit: with
// divider K both rings contribute, and only the thermal part grows
// linearly with K (the flicker part is autocorrelated — the paper's
// point).
//
// The returned struct separates the thermal-only accumulation (the
// entropy-bearing part under the refined model) from the total
// accumulated variance a naive independence-assuming model would use.
func (g *Generator) AccumulatedJitterVariance() AccumulatedVariance {
	rel := g.pair.RelativeModel()
	k := g.divider
	th := rel.SigmaN2Thermal(k) / 2 // one-sided accumulation: Var(ΣJ) = N·σ²
	tot := rel.SigmaN2(k) / 2
	return AccumulatedVariance{Thermal: th, Total: tot, SamplePeriods: k}
}

// AccumulatedVariance carries the per-sample accumulated jitter variance
// split used by the entropy models. Values are in s².
type AccumulatedVariance struct {
	Thermal       float64
	Total         float64
	SamplePeriods int
}
