// Package measure simulates the differential jitter measurement
// circuitry of paper Fig. 6: two nominally identical ring oscillators
// Osc1 and Osc2, and a counter that records Q_N^i — the number of Osc1
// rising edges observed during N cycles of Osc2, counted from time t_i.
// Consecutive counting windows are adjacent, so
//
//	s_N(t_i) = (Q_N^{i+1} − Q_N^i)/f0        (eq. 12)
//
// recovers the paper's accumulated-jitter statistic from pure digital
// counter data: Q_N^{i+1} − Q_N^i is the second difference of the Osc1
// phase sampled at the window boundaries (eq. 8), so its variance obeys
// eq. 11 with the RELATIVE phase-noise coefficients (both rings
// contribute; for independent identical rings they double).
//
// # Quantization
//
// A single-edge counter resolves phase to one period, so the reported
// s_N carries a quantization error of order one count — far above the
// jitter signal at small N (the paper's own fit reaches f0²σ²_N ≈ 1
// count² only at N ≈ 3·10⁴). Real measurement campaigns deal with this
// by (a) relying on the natural frequency mismatch of "identical" rings
// to dither the boundary phase, (b) sub-period phase resolution
// (delay-line TDC taps, as available on the Evariste platform's
// carry-chain samplers), and (c) including the constant quantization
// floor as an additive term of the variance fit
// (fitting.FitWithOffset). The Counter supports (b) via Subdivide; the
// sweep documentation shows (a) and (c).
//
// The simulation is event-driven and bit-accurate with respect to an
// idealized synchronous counter (no metastability model: the paper's
// analysis likewise ignores sampling metastability, which perturbs Q_N
// by at most ±1 count).
package measure

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/jitter"
	"repro/internal/osc"
	"repro/internal/stats"
)

// edgeChunk is the Osc1/Osc2 read-ahead chunk size: large enough to
// amortize per-edge call overhead, small enough that the read-ahead a
// counter may discard when re-armed mid-stream stays negligible.
const edgeChunk = 512

// Counter is the differential counter of Fig. 6 configured for windows
// of n reference (Osc2) cycles.
type Counter struct {
	pair *osc.Pair
	n    int
	sub  int
	leap bool // leapfrog window mode (see Config.Leapfrog)
	// Osc1 waveform tracking for the event-driven phase read-out.
	// Edges are pulled through a chunk buffer (osc.NextEdges) so the
	// hot loop pays one oscillator call per edgeChunk edges instead of
	// one per edge.
	edges     uint64  // rising edges emitted up to nextEdge1 (exclusive)
	lastEdge1 float64 // time of the most recent Osc1 edge <= cursor
	nextEdge1 float64 // time of the next Osc1 edge
	buf1      []float64
	pos1      int
	win2      []float64 // Osc2 window scratch for chunked advancement
	lastQ     int64     // subdivided phase count at the previous boundary
	primed    bool
}

// Config parameterizes a Counter beyond the window length.
type Config struct {
	// Subdivide is the sub-period phase resolution M: the counter
	// resolves Osc1 phase to 1/(M·f0) (a delay-line TDC with M taps).
	// 1 (or 0) is the plain single-edge counter of Fig. 6.
	Subdivide int
	// Leapfrog selects the O(1)-per-window fast path: each window
	// jumps Osc2 by N periods in closed form (osc.Leapfrog), jumps
	// Osc1 to just short of the window boundary
	// (osc.LeapfrogToBefore), and walks only the few edges straddling
	// the boundary exactly for the TDC phase interpolation, so a
	// window costs about the same at any N. The counts are
	// exact in distribution (same σ²_N law, same Q_N moments) but are
	// a different realization than the edge-level reference path;
	// oscillators that cannot leapfrog (installed Modulator, Kasdin
	// flicker backend) fall back to edge stepping inside internal/osc,
	// so the mode is always safe to request.
	Leapfrog bool
}

// NewCounter attaches a plain single-edge counter to an oscillator
// pair. n is the number of Osc2 cycles per counting window (the
// paper's N).
func NewCounter(pair *osc.Pair, n int) (*Counter, error) {
	return NewCounterConfig(pair, n, Config{})
}

// NewCounterConfig attaches a counter with explicit configuration.
func NewCounterConfig(pair *osc.Pair, n int, cfg Config) (*Counter, error) {
	if n < 1 {
		return nil, fmt.Errorf("measure: window length N = %d must be >= 1", n)
	}
	if pair == nil || pair.Osc1 == nil || pair.Osc2 == nil {
		return nil, fmt.Errorf("measure: nil oscillator pair")
	}
	sub := cfg.Subdivide
	if sub == 0 {
		sub = 1
	}
	if sub < 1 || sub > 1<<20 {
		return nil, fmt.Errorf("measure: subdivision %d out of [1, 2^20]", sub)
	}
	return &Counter{pair: pair, n: n, sub: sub, leap: cfg.Leapfrog}, nil
}

// N returns the configured window length.
func (c *Counter) N() int { return c.n }

// Subdivision returns the phase resolution M.
func (c *Counter) Subdivision() int { return c.sub }

// PeriodOsc1 returns the nominal period 1/f0 of the counted oscillator,
// the conversion factor of eq. 12 (counts → seconds).
func (c *Counter) PeriodOsc1() float64 { return 1 / c.pair.Osc1.F0() }

// Resolution returns the counter's time resolution 1/(M·f0) in seconds.
func (c *Counter) Resolution() float64 { return c.PeriodOsc1() / float64(c.sub) }

// nextOsc1Edge returns the time of Osc1's next rising edge. The edge
// path refills a read-ahead chunk buffer; the leapfrog path pulls
// single edges, because phiAt's boundary jump advances Osc1's own
// cursor and any unconsumed read-ahead would be skipped over.
func (c *Counter) nextOsc1Edge() float64 {
	if c.leap {
		return c.pair.Osc1.NextEdge()
	}
	if c.pos1 == len(c.buf1) {
		if c.buf1 == nil {
			c.buf1 = make([]float64, edgeChunk)
		}
		c.pair.Osc1.NextEdges(c.buf1)
		c.pos1 = 0
	}
	e := c.buf1[c.pos1]
	c.pos1++
	return e
}

// advanceOsc2 advances Osc2 by n periods and returns the time of its
// last edge (== Osc2.Now() afterwards). In leapfrog mode the whole
// window is one closed-form jump.
func (c *Counter) advanceOsc2(n int) float64 {
	if c.leap {
		return c.pair.Osc2.Leapfrog(n)
	}
	if c.win2 == nil {
		w := n
		if w > edgeChunk {
			w = edgeChunk
		}
		c.win2 = make([]float64, w)
	}
	end := c.pair.Osc2.Now()
	for n > 0 {
		k := n
		if k > len(c.win2) {
			k = len(c.win2)
		}
		chunk := c.pair.Osc2.NextEdges(c.win2[:k])
		end = chunk[k-1]
		n -= k
	}
	return end
}

// phiAt advances the Osc1 edge cursor to cover time t and returns the
// subdivided phase count floor(M·Φ1(t)), where Φ1 counts Osc1 periods
// with linear interpolation inside the current period (the TDC model).
func (c *Counter) phiAt(t float64) int64 {
	if c.leap && c.nextEdge1 <= t {
		// Fast path: Osc1's cursor sits exactly on the already-pulled
		// nextEdge1 (leapfrog counters read no further ahead), so jump
		// it to just short of the boundary and let the loop below walk
		// the few remaining edges. The jumps emit j edges beyond
		// nextEdge1, all ≤ t with overwhelming probability; nextEdge1
		// itself plus those j edges enter the phase count, and the
		// last jump's end edge becomes the interpolation anchor.
		if j := c.pair.Osc1.LeapfrogToBefore(t); j > 0 {
			c.edges += j + 1
			c.lastEdge1 = c.pair.Osc1.Now()
			c.nextEdge1 = c.nextOsc1Edge()
		}
	}
	for c.nextEdge1 <= t {
		c.lastEdge1 = c.nextEdge1
		c.nextEdge1 = c.nextOsc1Edge()
		c.edges++
	}
	frac := 0.0
	if c.nextEdge1 > c.lastEdge1 {
		frac = (t - c.lastEdge1) / (c.nextEdge1 - c.lastEdge1)
	}
	if frac < 0 {
		frac = 0
	}
	if frac >= 1 {
		frac = math.Nextafter(1, 0)
	}
	return int64(c.edges)*int64(c.sub) + int64(frac*float64(c.sub))
}

// NextQ runs one counting window of N Osc2 cycles and returns Q_N in
// subdivided counts: the Osc1 phase advance across the window
// [start, end), where start is the end of the previous window. With
// Subdivide == 1 this is exactly the number of Osc1 rising edges inside
// the window.
func (c *Counter) NextQ() int64 {
	if !c.primed {
		// Arm the counter. Osc1's most recent emitted edge anchors
		// the phase interpolation, but when arming mid-run that edge
		// can lie AFTER the current Osc2 boundary, so the phase read
		// at the arming instant is unreliable by up to one period —
		// enormous compared to s_N. A real synchronous counter has
		// the same start-up hazard; like hardware, we warm up: run
		// one full counting window before the first reported Q, so
		// every reported count uses boundaries measured with a
		// settled edge cursor.
		// A counter arms exactly once, before its read-ahead buffer
		// has drawn anything, so the oscillator's current edge is the
		// anchor (exactly the old behaviour). When arming on a pair
		// another counter already read ahead on, Osc1.Now() may lie
		// past the Osc2 boundary — the start-up hazard the warm-up
		// window below absorbs.
		c.lastEdge1 = c.pair.Osc1.Now()
		c.nextEdge1 = c.nextOsc1Edge()
		c.phiAt(c.pair.Osc2.Now())
		// Warm up: at least one full window, and as many more as it
		// takes for the edge cursor to straddle the window boundary
		// (lastEdge1 <= boundary < nextEdge1). A counter arming after
		// another counter's chunked read-ahead on the same pair starts
		// with its anchor up to edgeChunk periods past the Osc2
		// cursor; reporting counts before the cursor re-enters the
		// live edge stream would return pure warm-up artifacts.
		for {
			end := c.advanceOsc2(c.n)
			c.lastQ = c.phiAt(end)
			if c.lastEdge1 <= end {
				break
			}
		}
		c.primed = true
	}
	end := c.advanceOsc2(c.n)
	q := c.phiAt(end)
	dq := q - c.lastQ
	c.lastQ = q
	return dq
}

// QSeries collects m consecutive window counts.
func (c *Counter) QSeries(m int) []int64 {
	out := make([]int64, m)
	for i := range out {
		out[i] = c.NextQ()
	}
	return out
}

// SNFromQ converts consecutive window counts into s_N values via eq. 12
// generalized to subdivided counts:
// s_N(t_i) = (Q_N^{i+1} − Q_N^i)/(M·f0). The result has len(q)−1
// entries.
func SNFromQ(q []int64, f0 float64, subdivide int) []float64 {
	if f0 <= 0 {
		panic(fmt.Sprintf("measure: f0 = %g must be > 0", f0))
	}
	if subdivide < 1 {
		panic(fmt.Sprintf("measure: subdivision %d must be >= 1", subdivide))
	}
	if len(q) < 2 {
		return nil
	}
	out := make([]float64, len(q)-1)
	scale := 1 / (f0 * float64(subdivide))
	for i := 1; i < len(q); i++ {
		out[i-1] = float64(q[i]-q[i-1]) * scale
	}
	return out
}

// SN runs the counter for windows+1 windows and returns the s_N series
// in seconds.
func (c *Counter) SN(windows int) []float64 {
	q := c.QSeries(windows + 1)
	return SNFromQ(q, c.pair.Osc1.F0(), c.sub)
}

// QuantizationFloor returns the additive variance contributed by the
// counter's phase quantization to Var(s_N) when the boundary phase is
// well dithered (mismatched rings): the second difference of three
// independent uniform quantization errors has variance 6·Δ²/12 with
// Δ = 1/(M·f0), i.e. Δ²/2.
func (c *Counter) QuantizationFloor() float64 {
	d := c.Resolution()
	return d * d / 2
}

// EstimateSigmaN2 measures σ²_N from windows consecutive counter
// readings: it collects Q_N, forms s_N via eq. 12 and returns the
// variance with its standard error. Adjacent s_N values share one Q_N
// reading, so they have a lag-1 correlation of −1/2 under independence;
// the standard error accounts for it with the conservative factor √2.
//
// The returned variance INCLUDES the counter quantization floor; use
// fitting.FitWithOffset (or subtract QuantizationFloor for a dithered
// counter) when small-N precision matters.
func (c *Counter) EstimateSigmaN2(windows int) (jitter.VarianceEstimate, error) {
	if windows < 3 {
		return jitter.VarianceEstimate{}, fmt.Errorf("measure: need >= 3 windows, got %d", windows)
	}
	s := c.SN(windows)
	_, v := stats.MeanVariance(s)
	return jitter.VarianceEstimate{
		N:       c.n,
		SigmaN2: v,
		StdErr:  stats.StdErrOfVariance(v, len(s)) * math.Sqrt2,
		Samples: len(s),
	}, nil
}

// SweepConfig controls a multi-N measurement campaign (the Fig. 7
// experiment).
type SweepConfig struct {
	// Ns is the window-length grid.
	Ns []int
	// WindowsPerN is the number of counter windows collected at each
	// N. More windows shrink the σ²_N error bars as 1/√windows.
	WindowsPerN int
	// WindowBudget, when > 0, replaces WindowsPerN with
	// max(minWindows, WindowBudget/N): a fixed total-periods budget
	// spread across the sweep, matching how a fixed-duration hardware
	// capture behaves.
	WindowBudget int
	// MinWindows floors the per-N window count when WindowBudget is
	// used (default 64).
	MinWindows int
	// Subdivide forwards the TDC resolution to every counter.
	Subdivide int
	// Leapfrog forwards the O(1)-per-window fast path to every
	// counter (see Config.Leapfrog): large-N cells cost O(windows)
	// instead of O(windows·N), which is what makes calibrated-physics
	// campaigns at the paper's operating point affordable.
	Leapfrog bool
	// Jobs is the engine worker-pool width used by SweepParallel:
	// 0 selects runtime.NumCPU(), 1 forces the sequential reference
	// path. The results are bit-identical for every value.
	Jobs int
}

// windowsFor returns the number of counter windows collected at grid
// point N under this configuration's budget policy.
func (cfg SweepConfig) windowsFor(n int) int {
	minW := cfg.MinWindows
	if minW == 0 {
		minW = 64
	}
	windows := cfg.WindowsPerN
	if cfg.WindowBudget > 0 {
		windows = cfg.WindowBudget / n
		if windows < minW {
			windows = minW
		}
	}
	if windows < 3 {
		windows = 3
	}
	return windows
}

// Sweep runs the Fig. 7 campaign against ONE live pair: for every N in
// cfg.Ns it configures a counter on the pair and estimates σ²_N. The
// pair's oscillators keep advancing across Ns (one long capture, like
// the hardware experiment) — the right shape when the pair is a
// specific physical article being measured (core.Measure, attack
// scenarios with armed modulators). Campaign-style reproduction runs
// that only need statistically equivalent cells should use
// SweepParallel, which fans the grid out on the engine worker pool.
func Sweep(pair *osc.Pair, cfg SweepConfig) ([]jitter.VarianceEstimate, error) {
	if len(cfg.Ns) == 0 {
		return nil, fmt.Errorf("measure: empty N grid")
	}
	out := make([]jitter.VarianceEstimate, 0, len(cfg.Ns))
	for _, n := range cfg.Ns {
		c, err := NewCounterConfig(pair, n, Config{Subdivide: cfg.Subdivide, Leapfrog: cfg.Leapfrog})
		if err != nil {
			return nil, err
		}
		est, err := c.EstimateSigmaN2(cfg.windowsFor(n))
		if err != nil {
			return nil, err
		}
		out = append(out, est)
	}
	return out, nil
}

// PairFactory builds an independent oscillator pair from a campaign
// task seed. core's Model.RingPair and Model.SimulatePair satisfy it
// directly.
type PairFactory func(seed uint64) (*osc.Pair, error)

// SweepParallel runs the Fig. 7 campaign as one engine task per N
// value: campaign cell i gets its own independent pair built from
// mk(engine.DeriveSeed(seed, i)), its own counter, and writes only its
// own result slot. Results are therefore bit-identical for every
// worker-pool width (cfg.Jobs), including the sequential Jobs == 1
// reference path, and depend only on (seed, cfg).
//
// Statistically the per-cell pairs are as faithful as Sweep's one long
// capture: the flicker generators start in their stationary
// distribution, so every cell observes the same stationary jitter
// process the hardware capture does.
func SweepParallel(ctx context.Context, mk PairFactory, seed uint64, cfg SweepConfig) ([]jitter.VarianceEstimate, error) {
	if len(cfg.Ns) == 0 {
		return nil, fmt.Errorf("measure: empty N grid")
	}
	if mk == nil {
		return nil, fmt.Errorf("measure: nil pair factory")
	}
	return engine.Map(ctx, len(cfg.Ns), func(_ context.Context, i int) (jitter.VarianceEstimate, error) {
		n := cfg.Ns[i]
		pair, err := mk(engine.DeriveSeed(seed, uint64(i)))
		if err != nil {
			return jitter.VarianceEstimate{}, err
		}
		c, err := NewCounterConfig(pair, n, Config{Subdivide: cfg.Subdivide, Leapfrog: cfg.Leapfrog})
		if err != nil {
			return jitter.VarianceEstimate{}, err
		}
		return c.EstimateSigmaN2(cfg.windowsFor(n))
	}, engine.Jobs(cfg.Jobs))
}
