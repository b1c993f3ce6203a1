// Package multiring implements the Sunar–Martin–Stinson multi-ring
// TRNG [7] ("A provably secure true random number generator with
// built-in tolerance to active attacks"): R free-running rings are
// XOR-ed together and sampled at a fixed rate; the security argument
// counts how many rings have an edge inside each sampling interval
// ("filled urns").
//
// It serves as the third modeled baseline of the paper's §II survey,
// and demonstrates the same blind spot: Sunar's bound assumes the ring
// phases perform INDEPENDENT diffusion between samples, i.e. white
// jitter. Flicker noise correlates each ring's phase across samples,
// so the effective fresh randomness per sample is governed by the
// thermal component only — exactly the paper's thesis, in a different
// architecture.
package multiring

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/osc"
	"repro/internal/phase"
	"repro/internal/stats"
)

// ringChunk is the per-ring edge read-ahead (osc.NextEdges) chunk size.
const ringChunk = 256

// Config describes the generator.
type Config struct {
	// Model is the per-ring phase-noise model.
	Model phase.Model
	// Rings is the number of free-running rings R.
	Rings int
	// SampleRate is the output bit rate in Hz.
	SampleRate float64
	// RelativeSpread is the rms relative frequency spread across
	// rings (process variation); each ring's f0 is drawn once from
	// a uniform ±spread·√3 band so distinct rings do not phase-lock.
	RelativeSpread float64
	// Seed seeds all rings.
	Seed uint64
	// Leapfrog selects the O(1)-per-sample fast path: between sample
	// instants each ring jumps its stride in closed form, in stages
	// that close in on the instant (osc.LeapfrogToBefore), and walks
	// only the few edges straddling it exactly for the waveform
	// interpolation. Worth enabling when the
	// per-sample stride f0/SampleRate is large (slow sampling of fast
	// rings); with short strides the jump primitive declines to engage
	// and the path degenerates to plain stepping. The output is exact
	// in distribution but a different realization than the edge-level
	// reference; rings that cannot leapfrog (Modulator, Kasdin
	// backend) fall back to edge stepping inside internal/osc.
	Leapfrog bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	switch {
	case c.Rings < 1:
		return fmt.Errorf("multiring: rings = %d must be >= 1", c.Rings)
	case c.SampleRate <= 0:
		return fmt.Errorf("multiring: sample rate %g must be > 0", c.SampleRate)
	case c.SampleRate >= 10*c.Model.F0:
		return fmt.Errorf("multiring: sample rate %g implausibly above f0 %g", c.SampleRate, c.Model.F0)
	case c.RelativeSpread < 0 || c.RelativeSpread > 0.5:
		return fmt.Errorf("multiring: spread %g out of [0, 0.5]", c.RelativeSpread)
	}
	return nil
}

// ringState tracks one ring's waveform between samples. Edges are
// pulled through a chunk buffer (osc.NextEdges) so sampling pays one
// oscillator call per ringChunk edges. Each ringState is mutated only
// by the goroutine that owns its ring — the property BitsParallel's
// per-replica tasks rely on.
type ringState struct {
	o        *osc.Oscillator
	leap     bool
	lastEdge float64
	nextEdge float64
	buf      []float64
	pos      int
}

// popEdge returns the ring's next rising-edge time. The leapfrog path
// pulls single edges: bitAt's jump advances the oscillator's own
// cursor, so any unconsumed read-ahead would be skipped over.
func (st *ringState) popEdge() float64 {
	if st.leap {
		return st.o.NextEdge()
	}
	if st.pos == len(st.buf) {
		if st.buf == nil {
			st.buf = make([]float64, ringChunk)
		}
		st.o.NextEdges(st.buf)
		st.pos = 0
	}
	e := st.buf[st.pos]
	st.pos++
	return e
}

// bitAt advances the ring's waveform to the sample instant t and
// returns the sampled square-wave bit.
func (st *ringState) bitAt(t float64) byte {
	if st.leap && st.nextEdge <= t {
		// The ring's cursor sits exactly on the already-pulled
		// nextEdge; jump it to just short of the sample instant and
		// let the loop below walk the remaining slack exactly.
		if j := st.o.LeapfrogToBefore(t); j > 0 {
			st.lastEdge = st.o.Now()
			st.nextEdge = st.popEdge()
		}
	}
	for st.nextEdge <= t {
		st.lastEdge = st.nextEdge
		st.nextEdge = st.popEdge()
	}
	frac := 0.0
	if st.nextEdge > st.lastEdge {
		frac = (t - st.lastEdge) / (st.nextEdge - st.lastEdge)
	}
	if frac < 0.5 {
		return 1
	}
	return 0
}

// Generator is a running multi-ring TRNG.
type Generator struct {
	cfg   Config
	rings []ringState
	tick  uint64
}

// New builds the generator.
func New(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg}
	// Deterministic per-ring frequency offsets from the seed.
	mix := cfg.Seed
	for r := 0; r < cfg.Rings; r++ {
		mix = mix*6364136223846793005 + 1442695040888963407
		frac := float64(mix>>11) / (1 << 53) // uniform [0,1)
		m := cfg.Model
		m.F0 *= 1 + cfg.RelativeSpread*math.Sqrt(3)*(2*frac-1)
		o, err := osc.New(m, osc.Options{Seed: mix ^ 0x9e3779b97f4a7c15})
		if err != nil {
			return nil, err
		}
		st := ringState{o: o, leap: cfg.Leapfrog}
		st.nextEdge = st.popEdge()
		g.rings = append(g.rings, st)
	}
	return g, nil
}

// Rings returns R.
func (g *Generator) Rings() int { return len(g.rings) }

// NextBit advances wall-clock time by one sample interval, reads each
// ring's square waveform at the sample instant, and XORs them.
func (g *Generator) NextBit() byte {
	g.tick++
	t := float64(g.tick) / g.cfg.SampleRate
	var bit byte
	for i := range g.rings {
		bit ^= g.rings[i].bitAt(t)
	}
	return bit
}

// Bits produces n output bits.
func (g *Generator) Bits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = g.NextBit()
	}
	return out
}

// Read implements io.Reader: it fills p entirely with packed output
// bits (8 bits per byte, MSB-first) and never fails — the simulated
// source cannot run dry. It lets the generator compose directly with
// the standard library and with the internal/entropyd serving layer.
func (g *Generator) Read(p []byte) (int, error) {
	for i := range p {
		var b byte
		for k := 0; k < 8; k++ {
			b = b<<1 | g.NextBit()
		}
		p[i] = b
	}
	return len(p), nil
}

// BitsParallel produces the same n output bits as Bits, but runs each
// ring replica as one engine task: every ring samples its own square
// waveform for the whole span (touching only its own ringState), and
// the streams are XOR-reduced afterwards. Because the per-ring streams
// and the sample instants are independent of scheduling, the output is
// bit-identical to the sequential Bits for every worker-pool width
// (jobs: 0 = NumCPU, 1 = sequential).
//
// If the context is cancelled mid-span the error is returned and the
// generator must be discarded: rings that already ran sit n samples
// ahead of rings that never started, so no subsequent output would
// correspond to any reproducible (seed, n) layout.
func (g *Generator) BitsParallel(ctx context.Context, n, jobs int) ([]byte, error) {
	if n < 0 {
		return nil, fmt.Errorf("multiring: bit count %d must be >= 0", n)
	}
	if err := ctx.Err(); err != nil {
		// Fail before any ring advances: a pre-cancelled context must
		// not leave the generator in the discard-only state above.
		return nil, err
	}
	base := g.tick
	fs := g.cfg.SampleRate
	streams, err := engine.Map(ctx, len(g.rings), func(_ context.Context, r int) ([]byte, error) {
		st := &g.rings[r]
		out := make([]byte, n)
		for i := range out {
			out[i] = st.bitAt(float64(base+uint64(i)+1) / fs)
		}
		return out, nil
	}, engine.Jobs(jobs))
	if err != nil {
		return nil, err
	}
	g.tick = base + uint64(n)
	out := make([]byte, n)
	for _, s := range streams {
		for i := range out {
			out[i] ^= s[i]
		}
	}
	return out, nil
}

// FilledUrns counts, over one sampling interval, how many rings had at
// least one rising edge — Sunar's urn statistic. With f0 ≫ fs every
// urn is filled; the statistic matters for fast sampling.
func (g *Generator) FilledUrns() int {
	g.tick++
	t := float64(g.tick) / g.cfg.SampleRate
	filled := 0
	for i := range g.rings {
		st := &g.rings[i]
		had := false
		for st.nextEdge <= t {
			st.lastEdge = st.nextEdge
			st.nextEdge = st.popEdge()
			had = true
		}
		if had {
			filled++
		}
	}
	return filled
}

// SunarBias returns the classical (independence-assuming) bound on the
// per-ring sampled-bit bias: for phase diffusion with accumulated
// variance σ²_acc (cycles²) per sample interval, the first-harmonic
// bias is (2/π)·exp(−2π²σ²_acc); XOR of R rings piles up to
// 2^{R−1}·bias^R.
func SunarBias(sigmaAccCycles float64, rings int) float64 {
	per := 2 / math.Pi * math.Exp(-2*math.Pi*math.Pi*sigmaAccCycles*sigmaAccCycles)
	return math.Pow(2, float64(rings-1)) * math.Pow(per, float64(rings))
}

// Assessment contrasts the naive and refined bias bounds of the XOR-ed
// output, mirroring internal/entropy for this architecture.
type Assessment struct {
	// SigmaNaive / SigmaRefined: per-sample accumulated phase rms in
	// cycles under each model.
	SigmaNaive, SigmaRefined float64
	// BiasNaive / BiasRefined: piled-up bias bounds.
	BiasNaive, BiasRefined float64
	// EntropyNaive / EntropyRefined: first-order entropy 1 − 2b²/ln2.
	EntropyNaive, EntropyRefined float64
}

// Assess evaluates the bounds for the configuration: the naive path
// accumulates the TOTAL per-period jitter variance inferred at nMeas
// (inflated by flicker), the refined path only the thermal part.
func Assess(cfg Config, nMeas int) (Assessment, error) {
	if err := cfg.Validate(); err != nil {
		return Assessment{}, err
	}
	if nMeas < 1 {
		return Assessment{}, fmt.Errorf("multiring: nMeas %d must be >= 1", nMeas)
	}
	k := cfg.Model.F0 / cfg.SampleRate // periods per sample
	perNaive := cfg.Model.SigmaN2(nMeas) / (2 * float64(nMeas))
	varNaive := k * perNaive * cfg.Model.F0 * cfg.Model.F0
	sigTh := cfg.Model.SigmaThermal()
	varRef := k * sigTh * sigTh * cfg.Model.F0 * cfg.Model.F0
	a := Assessment{
		SigmaNaive:   math.Sqrt(varNaive),
		SigmaRefined: math.Sqrt(varRef),
	}
	a.BiasNaive = SunarBias(a.SigmaNaive, cfg.Rings)
	a.BiasRefined = SunarBias(a.SigmaRefined, cfg.Rings)
	a.EntropyNaive = clampEntropy(1 - 2*a.BiasNaive*a.BiasNaive/math.Ln2)
	a.EntropyRefined = clampEntropy(1 - 2*a.BiasRefined*a.BiasRefined/math.Ln2)
	return a, nil
}

func clampEntropy(h float64) float64 {
	if h < 0 {
		return 0
	}
	if h > 1 {
		return 1
	}
	return h
}

// EmpiricalBias measures the output bias over n samples.
func (g *Generator) EmpiricalBias(n int) float64 {
	bits := g.Bits(n)
	ones := 0
	for _, b := range bits {
		ones += int(b)
	}
	return float64(ones)/float64(n) - 0.5
}

// LagCorrelation returns the lag-1 autocorrelation of ±1-mapped output
// bits over n samples — the cheap dependence witness.
func (g *Generator) LagCorrelation(n int) float64 {
	bits := g.Bits(n)
	xs := make([]float64, len(bits))
	for i, b := range bits {
		xs[i] = float64(int(b)*2 - 1)
	}
	rho := stats.Autocorrelation(xs, 1)
	return rho[1]
}
