// Package osc simulates classical ring oscillators at the edge-time
// level. It is the stand-in for the paper's FPGA hardware (two 103 MHz
// rings on an Altera Cyclone III): every downstream experiment consumes
// only the stream of rising-edge times / periods, which this simulator
// produces with the exact noise statistics assumed by the multilevel
// model:
//
//   - thermal noise → white FM: per-period jitter J_th i.i.d. Gaussian
//     with variance σ² = b_th/f0³, giving σ²_N,th = 2·(b_th/f0³)·N;
//   - flicker noise → flicker FM: fractional-frequency process y with
//     one-sided PSD S_y(f) = h₋₁/f, h₋₁ = 2·b_fl/f0², giving
//     σ²_N,fl = 8·ln2·(b_fl/f0⁴)·N² (paper eq. 11).
//
// A Modulator hook allows deterministic period modulation (frequency
// injection attacks, supply drift) and noise-scaling attacks.
//
// Besides the edge-by-edge path, the oscillator offers a leapfrog
// fast-forward (Leapfrog, LeapfrogToBefore — see leapfrog.go) that
// advances a whole window of periods at O(poles) cost, exact in
// distribution, leaving only the few edges around a sampling instant
// to be walked; any installed Modulator forces the edge-level path.
package osc

import (
	"fmt"
	"math"

	"repro/internal/flicker"
	"repro/internal/phase"
	"repro/internal/rng"
)

// Modulator is a deterministic period disturbance: given the nominal
// edge time t (s) and the period index i, it returns an additive period
// offset in seconds. Used to model frequency-injection attacks and
// environmental drift.
type Modulator func(t float64, i uint64) float64

// Options configures an Oscillator.
type Options struct {
	// Seed seeds the oscillator's private noise streams.
	Seed uint64
	// FlickerGenerator selects the 1/f synthesis method: "ou"
	// (default; streaming, O(1)/sample) or "kasdin" (exact spectrum,
	// block FFT).
	FlickerGenerator string
	// FlickerFMin sets the low-frequency flatten point of the OU
	// generator as a fraction of f0; zero selects 1e-8·f0, long
	// enough that all experiments in this repository sit inside the
	// 1/f band.
	FlickerFMin float64
	// PolesPerDecade forwards to the OU generator (default 3).
	PolesPerDecade int
	// Modulator, when non-nil, adds a deterministic per-period
	// offset (attack/drift model).
	Modulator Modulator
	// ThermalScale and FlickerScale multiply the respective noise
	// amplitudes (not variances); 0 means 1. They exist for
	// noise-manipulation attack experiments.
	ThermalScale, FlickerScale float64
}

// Oscillator produces the rising-edge time series of one ring
// oscillator.
type Oscillator struct {
	model   phase.Model
	sigmaTh float64
	fm      flicker.Generator // nil when Bfl == 0
	src     *rng.Source
	mod     Modulator
	t       float64 // time of the last emitted edge
	index   uint64
	period0 float64
	thScale float64
	flScale float64
}

// New constructs an oscillator for the given phase-noise model.
func New(model phase.Model, opt Options) (*Oscillator, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	o := &Oscillator{
		model:   model,
		sigmaTh: model.SigmaThermal(),
		src:     rng.New(opt.Seed),
		mod:     opt.Modulator,
		period0: 1 / model.F0,
		thScale: opt.ThermalScale,
		flScale: opt.FlickerScale,
	}
	if o.thScale == 0 {
		o.thScale = 1
	}
	if o.flScale == 0 {
		o.flScale = 1
	}
	if model.Bfl > 0 {
		_, hm1 := model.PeriodJitterPSDs()
		switch opt.FlickerGenerator {
		case "", "ou":
			fmin := opt.FlickerFMin
			if fmin == 0 {
				fmin = 1e-8
			}
			g, err := flicker.NewOU(flicker.OUOptions{
				HM1:            hm1,
				SampleRate:     model.F0,
				FMin:           fmin * model.F0,
				FMax:           model.F0 / 4,
				PolesPerDecade: opt.PolesPerDecade,
				Seed:           o.src.Uint64(),
			})
			if err != nil {
				return nil, err
			}
			o.fm = g
		case "kasdin":
			g, err := flicker.NewKasdin(flicker.KasdinOptions{
				Alpha:      1,
				HM1:        hm1,
				SampleRate: model.F0,
				Seed:       o.src.Uint64(),
			})
			if err != nil {
				return nil, err
			}
			o.fm = g
		default:
			return nil, fmt.Errorf("osc: unknown flicker generator %q", opt.FlickerGenerator)
		}
	}
	return o, nil
}

// Model returns the phase-noise model driving the oscillator.
func (o *Oscillator) Model() phase.Model { return o.model }

// F0 returns the nominal frequency.
func (o *Oscillator) F0() float64 { return o.model.F0 }

// NextPeriod advances the oscillator by one period and returns its
// duration T(t_i) in seconds (paper eq. 7 viewpoint: nominal period plus
// jitter).
func (o *Oscillator) NextPeriod() float64 {
	period := o.period0
	// Thermal: white FM, independent per period.
	if o.sigmaTh > 0 {
		period += o.thScale * o.sigmaTh * o.src.Norm()
	}
	// Flicker: fractional frequency deviation y_i, J_fl = y_i·T0.
	if o.fm != nil {
		period += o.flScale * o.fm.Next() * o.period0
	}
	if o.mod != nil {
		period += o.mod(o.t, o.index)
	}
	// Clamp pathological negative periods (can only occur with
	// absurd noise scales); keeps the edge sequence monotone.
	if period < o.period0*1e-3 {
		period = o.period0 * 1e-3
	}
	o.t += period
	o.index++
	return period
}

// NextEdge returns the absolute time of the next rising edge.
func (o *Oscillator) NextEdge() float64 {
	o.NextPeriod()
	return o.t
}

// Now returns the time of the most recently emitted edge.
func (o *Oscillator) Now() float64 { return o.t }

// Index returns the number of periods generated so far.
func (o *Oscillator) Index() uint64 { return o.index }

// NextPeriods fills dst with the next len(dst) consecutive period
// durations and returns dst. It is the chunked form of NextPeriod: one
// call amortizes the per-period method dispatch and state write-back
// over the whole chunk, which is what makes the campaign workers' hot
// loops fast. The emitted sequence is bit-identical to len(dst)
// successive NextPeriod calls.
func (o *Oscillator) NextPeriods(dst []float64) []float64 {
	// Hoist the true loop invariants (no API mutates them mid-run).
	// Everything a Modulator may legally touch — thScale/flScale via
	// the Set*Scale setters, the modulator itself via SetModulator —
	// is re-read every iteration, and o.t/o.index are synced before
	// each modulator call so a modulator reading Now()/Index() sees
	// exactly what the scalar NextPeriod path would show it.
	var (
		t       = o.t
		index   = o.index
		period0 = o.period0
		sigmaTh = o.sigmaTh
		src     = o.src
		fm      = o.fm
		floor   = period0 * 1e-3
	)
	for i := range dst {
		period := period0
		if sigmaTh > 0 {
			period += o.thScale * sigmaTh * src.Norm()
		}
		if fm != nil {
			period += o.flScale * fm.Next() * period0
		}
		if o.mod != nil {
			o.t, o.index = t, index
			period += o.mod(t, index)
		}
		if period < floor {
			period = floor
		}
		t += period
		index++
		dst[i] = period
	}
	o.t = t
	o.index = index
	return dst
}

// NextEdges fills dst with the absolute times of the next len(dst)
// rising edges and returns dst — the chunked form of NextEdge used by
// edge-consuming clients (measure.Counter, multiring) to amortize
// per-edge call overhead. Bit-identical to len(dst) successive
// NextEdge calls.
func (o *Oscillator) NextEdges(dst []float64) []float64 {
	t0 := o.t
	o.NextPeriods(dst)
	// Convert in-place from period durations to absolute edge times by
	// the same left-to-right accumulation NextEdge performs, so the
	// float rounding matches exactly.
	for i := range dst {
		t0 += dst[i]
		dst[i] = t0
	}
	return dst
}

// Periods generates n consecutive periods into a fresh slice.
func (o *Oscillator) Periods(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = o.NextPeriod()
	}
	return out
}

// Jitter generates n consecutive period-jitter realizations
// J = T − 1/f0 (paper eq. 3).
func (o *Oscillator) Jitter(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = o.NextPeriod() - o.period0
	}
	return out
}

// SetThermalScale changes the thermal noise amplitude scale mid-run
// (attack experiments: an adversary cooling the die or injecting a
// locking tone reduces the exploitable thermal jitter).
func (o *Oscillator) SetThermalScale(s float64) { o.thScale = s }

// SetFlickerScale changes the flicker amplitude scale mid-run.
func (o *Oscillator) SetFlickerScale(s float64) { o.flScale = s }

// SetModulator installs or replaces the deterministic period modulator.
func (o *Oscillator) SetModulator(m Modulator) { o.mod = m }

// SineInjection returns a Modulator implementing a frequency-injection
// attack (Markettos & Moore, CHES 2009): a tone at fInj couples into the
// ring and modulates its period with relative amplitude depth
// (ΔT/T0 = depth·sin(2π·fInj·t)).
func SineInjection(fInj, depth, t0 float64) Modulator {
	return func(t float64, _ uint64) float64 {
		return depth * t0 * math.Sin(2*math.Pi*fInj*t)
	}
}

// Pair is the two-oscillator arrangement of the eRO-TRNG (paper Fig. 4)
// and of the differential jitter measurement circuit (Fig. 6): two
// nominally identical, physically independent rings.
type Pair struct {
	Osc1, Osc2 *Oscillator
}

// NewPair builds two independent oscillators from the same model with
// decorrelated seeds. mismatch is the relative frequency mismatch
// between the rings (real "identical" FPGA rings differ by process
// variation; 0 is allowed and keeps both at f0).
func NewPair(model phase.Model, mismatch float64, opt Options) (*Pair, error) {
	m1 := model
	m2 := model
	m2.F0 = model.F0 * (1 + mismatch)
	o1opt := opt
	o2opt := opt
	o1opt.Seed = opt.Seed*2654435761 + 1
	o2opt.Seed = opt.Seed*2654435761 + 2
	o1, err := New(m1, o1opt)
	if err != nil {
		return nil, err
	}
	o2, err := New(m2, o2opt)
	if err != nil {
		return nil, err
	}
	return &Pair{Osc1: o1, Osc2: o2}, nil
}

// RelativeModel returns the phase-noise model of the relative jitter
// between the pair's oscillators: for independent rings the noise
// coefficients add.
func (p *Pair) RelativeModel() phase.Model {
	m := p.Osc1.Model()
	m2 := p.Osc2.Model()
	return phase.Model{Bth: m.Bth + m2.Bth, Bfl: m.Bfl + m2.Bfl, F0: m.F0}
}
