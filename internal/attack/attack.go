package attack

import (
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/osc"
)

// Schedule shapes an attack's strength envelope over the victim
// oscillator's local time: nothing before Onset, a linear ramp of Ramp
// seconds up to full strength, then — when Revert is set — Hold
// seconds at full strength followed by a symmetric ramp back to zero.
// The zero value is an immediate, permanent step, which is what the
// original Onset-only scenarios expressed.
//
// Schedules are evaluated in the clock of the oscillator they are
// armed on. A source ring and the monitor pair tapping it advance at
// different rates per raw output bit, so an experiment arming both
// sites derives one schedule from the other with Scaled.
type Schedule struct {
	// Onset is the attack start time in seconds.
	Onset float64
	// Ramp is the 0→1 strength ramp duration in seconds (0 = step).
	Ramp float64
	// Hold is the time at full strength before reverting; ignored
	// unless Revert is set (a non-reverting attack holds forever).
	Hold float64
	// Revert ramps the attack back off after Hold, modeling a
	// transient environmental excursion or an attacker backing off.
	Revert bool
}

// At is the step schedule starting at onset — shorthand for the common
// "flip at time t" case.
func At(onset float64) Schedule { return Schedule{Onset: onset} }

// Strength evaluates the envelope at time t, in [0, 1].
func (s Schedule) Strength(t float64) float64 {
	t -= s.Onset
	if t < 0 {
		return 0
	}
	if s.Ramp > 0 {
		if t < s.Ramp {
			return t / s.Ramp
		}
		t -= s.Ramp
	}
	if !s.Revert {
		return 1
	}
	t -= s.Hold
	if t < 0 {
		return 1
	}
	if s.Ramp > 0 && t < s.Ramp {
		return 1 - t/s.Ramp
	}
	return 0
}

// Scaled returns the schedule with every time constant multiplied by
// f. Experiments use it to replay a source-clock schedule on the
// monitor pair: per raw bit the source advances Divider periods while
// the monitor pair advances MonitorN/MonitorEveryBits periods, so the
// monitor-side schedule is the source one scaled by
// MonitorN/(MonitorEveryBits·Divider).
func (s Schedule) Scaled(f float64) Schedule {
	return Schedule{Onset: s.Onset * f, Ramp: s.Ramp * f, Hold: s.Hold * f, Revert: s.Revert}
}

// String renders the schedule for Describe output.
func (s Schedule) String() string {
	out := fmt.Sprintf("onset=%.3gs", s.Onset)
	if s.Ramp > 0 {
		out += fmt.Sprintf(" ramp=%.3gs", s.Ramp)
	}
	if s.Revert {
		out += fmt.Sprintf(" hold=%.3gs revert", s.Hold)
	}
	return out
}

// Describer is anything that can summarize itself for an injection
// marker (see Mark).
type Describer interface {
	// Describe returns a short human-readable summary.
	Describe() string
}

// Scenario is an attack that can be armed on an oscillator.
type Scenario interface {
	Describer
	// Arm installs the attack on the oscillator.
	Arm(o *osc.Oscillator)
}

// ArmBoth arms the scenario on both oscillators of a pair — the usual
// attack surface, since injection and environmental attacks couple
// into every ring on the die.
func ArmBoth(p *osc.Pair, s Scenario) {
	s.Arm(p.Osc1)
	s.Arm(p.Osc2)
}

// envelope installs a modulator that re-applies apply(strength)
// whenever the schedule's strength changes, and adds tone(t, i)
// scaled by the current strength to the period. Either hook may be
// nil. Scale updates from inside a modulator are legal per the
// osc.Oscillator contract (the oscillator syncs t/index before each
// modulator call and re-reads the scales each iteration).
func envelope(o *osc.Oscillator, sched Schedule, apply func(s float64), tone osc.Modulator) {
	last := math.Inf(-1)
	o.SetModulator(func(t float64, i uint64) float64 {
		s := sched.Strength(t)
		if s != last {
			if apply != nil {
				apply(s)
			}
			last = s
		}
		if tone == nil || s == 0 {
			return 0
		}
		return s * tone(t, i)
	})
}

// Injection is a frequency-injection attack: a tone at FInj couples
// into the ring, modulating its period with relative depth Depth on
// the given schedule. Injection near the ring frequency entrains the
// oscillator: the deterministic modulation squeezes the random phase
// diffusion, and the relative jitter between two rings collapses
// toward a deterministic beat — exactly the failure mode the paper's
// online test must catch. JitterSuppression expresses that entrainment
// directly (the tone itself is invisible to a windowed variance
// statistic; the jitter collapse is the detectable signature).
type Injection struct {
	// FInj is the injected tone frequency in Hz.
	FInj float64
	// Depth is the relative period modulation ΔT/T0 at full strength.
	Depth float64
	// Sched shapes the attack envelope (zero value: immediate step).
	Sched Schedule
	// JitterSuppression in [0, 1] scales down the thermal noise in
	// proportion to the attack strength (entrainment squeezes the
	// phase diffusion); 0 keeps thermal noise untouched.
	JitterSuppression float64
}

// Arm installs the injection on the oscillator.
func (a Injection) Arm(o *osc.Oscillator) {
	tone := osc.SineInjection(a.FInj, a.Depth, 1/o.F0())
	supp := a.JitterSuppression
	var apply func(s float64)
	if supp > 0 {
		apply = func(s float64) { o.SetThermalScale(1 - supp*s) }
	}
	envelope(o, a.Sched, apply, tone)
}

// Describe summarizes the attack.
func (a Injection) Describe() string {
	return fmt.Sprintf("frequency injection: f=%.3g Hz depth=%.3g suppression=%.2f %s",
		a.FInj, a.Depth, a.JitterSuppression, a.Sched)
}

// Locking builds the frequency-locking variant of Injection: the tone
// depth is the Adler threshold LockingDepth(f0, fInj, sigma) — just
// strong enough to entrain a ring of frequency f0 and thermal period
// jitter sigma — and the entrainment is expressed as the given jitter
// suppression (a locked ring's phase diffusion collapses almost
// entirely; 0.95 is a representative deep lock).
func Locking(f0, fInj, sigma, suppression float64, sched Schedule) Injection {
	return Injection{
		FInj:              fInj,
		Depth:             LockingDepth(f0, fInj, sigma),
		Sched:             sched,
		JitterSuppression: suppression,
	}
}

// ThermalSuppression models an attacker (or environmental failure)
// removing a Factor fraction of the thermal noise amplitude on the
// given schedule — e.g. cooling the die or locking the ring with a
// strong harmonic tone. The flicker component is left untouched: the
// insidious property is that long-accumulation jitter measurements
// still look lively (flicker dominates there), while the entropy-
// bearing thermal component is gone. Only a small-N thermal monitor —
// the paper's proposal — sees it.
type ThermalSuppression struct {
	// Factor in [0, 1] is the fraction of thermal amplitude removed at
	// full strength (1 = all thermal noise gone).
	Factor float64
	// Sched shapes the attack envelope (zero value: immediate step).
	Sched Schedule
}

// Arm installs the suppression as a schedule-driven thermal-scale
// envelope.
func (a ThermalSuppression) Arm(o *osc.Oscillator) {
	envelope(o, a.Sched, func(s float64) { o.SetThermalScale(1 - a.Factor*s) }, nil)
}

// Describe summarizes the attack.
func (a ThermalSuppression) Describe() string {
	return fmt.Sprintf("thermal suppression: factor=%.2f %s", a.Factor, a.Sched)
}

// SlowThermalRamp is the evasion case: a temperature ramp slow enough
// that every per-window χ² statistic of the online monitor stays
// inside its tolerance band, bottoming out at floor (the remaining
// thermal scale, e.g. 0.45) after ramp seconds. The thermal monitor
// never alarms; only the periodic SP 800-90B assessment — which
// measures the delivered entropy, not the rate of change — catches
// the degraded floor.
func SlowThermalRamp(floor, onset, ramp float64) ThermalSuppression {
	return ThermalSuppression{Factor: 1 - floor, Sched: Schedule{Onset: onset, Ramp: ramp}}
}

// FlickerBoost increases the flicker amplitude toward Factor on the
// given schedule — modeling aging/stress-induced 1/f noise growth, or
// simply a what-if for the technology-shrink trend the paper's
// conclusion warns about. Total jitter grows, naive models would
// report MORE entropy, while the refined model correctly reports no
// thermal gain.
type FlickerBoost struct {
	// Factor multiplies the flicker amplitude at full strength (>= 1).
	Factor float64
	// Sched shapes the attack envelope (zero value: immediate step).
	Sched Schedule
}

// Arm installs the boost.
func (a FlickerBoost) Arm(o *osc.Oscillator) {
	envelope(o, a.Sched, func(s float64) { o.SetFlickerScale(1 + (a.Factor-1)*s) }, nil)
}

// Describe summarizes the attack.
func (a FlickerBoost) Describe() string {
	return fmt.Sprintf("flicker boost: ×%.2f %s", a.Factor, a.Sched)
}

// NoiseKill removes BOTH noise components on the given schedule: the
// dead-source case (power-supply fault, latch-up, a clock replaced by
// a deterministic signal). The sampled bit stream flatlines, which is
// the total-failure class the AIS 31 tot test exists for.
type NoiseKill struct {
	// Sched shapes the attack envelope (zero value: immediate step).
	Sched Schedule
}

// Arm installs the kill.
func (a NoiseKill) Arm(o *osc.Oscillator) {
	envelope(o, a.Sched, func(s float64) {
		o.SetThermalScale(1 - s)
		o.SetFlickerScale(1 - s)
	}, nil)
}

// Describe summarizes the attack.
func (a NoiseKill) Describe() string {
	return fmt.Sprintf("noise kill (dead source) %s", a.Sched)
}

// SupplyRipple is the correlated multi-shard attack: a shared supply
// rail modulated at FRipple couples the SAME deterministic period
// modulation (depth Depth) into every ring powered from it, partially
// entraining them all (Entrain, like Injection.JitterSuppression).
// Arming one SupplyRipple value on every shard's oscillators models
// the shared rail; the signature that separates it from independent
// single-shard failures is that every coupled shard degrades on the
// same schedule.
type SupplyRipple struct {
	// FRipple is the ripple frequency in Hz.
	FRipple float64
	// Depth is the relative period modulation ΔT/T0 at full strength.
	Depth float64
	// Entrain in [0, 1] scales down the thermal noise in proportion
	// to the attack strength on every coupled ring.
	Entrain float64
	// Sched shapes the attack envelope (zero value: immediate step).
	Sched Schedule
}

// Arm installs the ripple on one oscillator; arm the same value on
// every ring sharing the supply.
func (a SupplyRipple) Arm(o *osc.Oscillator) {
	tone := osc.SineInjection(a.FRipple, a.Depth, 1/o.F0())
	var apply func(s float64)
	if a.Entrain > 0 {
		apply = func(s float64) { o.SetThermalScale(1 - a.Entrain*s) }
	}
	envelope(o, a.Sched, apply, tone)
}

// Describe summarizes the attack.
func (a SupplyRipple) Describe() string {
	return fmt.Sprintf("supply ripple: f=%.3g Hz depth=%.3g entrain=%.2f %s",
		a.FRipple, a.Depth, a.Entrain, a.Sched)
}

// BitSource is the raw bit-stream surface wrapper attacks apply to
// (structurally identical to entropyd.RawSource).
type BitSource interface {
	NextBit() byte
}

// SamplerBias attacks the sampling flip-flop instead of the rings: a
// comparator-threshold or duty-cycle skew that forces sampled bits
// toward 1 with probability P, starting after OnsetBits raw bits.
// The rings themselves stay healthy, so the §V monitor (which taps
// the oscillators) and the tot test (the bits still toggle) are both
// blind to it — the defense that sees it is the SP 800-90B assessment
// of the delivered bit stream, and the AIS 31 startup test at the
// next calibration. Wrap a shard's raw source with it via the pool's
// NewSource hook.
type SamplerBias struct {
	// Src is the wrapped healthy source.
	Src BitSource
	// P in [0, 1] is the probability a post-onset bit is forced to 1.
	P float64
	// OnsetBits delays the attack (raw bits of clean output first).
	OnsetBits uint64
	// Seed seeds the attacker's private force-bit generator.
	Seed uint64

	n   uint64
	rng uint64
}

// NextBit samples the wrapped source and applies the skew.
func (b *SamplerBias) NextBit() byte {
	bit := b.Src.NextBit() & 1
	b.n++
	if b.n <= b.OnsetBits {
		return bit
	}
	if b.rng == 0 {
		b.rng = b.Seed | 1
	}
	// xorshift64: the attacker's deterministic force pattern.
	b.rng ^= b.rng << 13
	b.rng ^= b.rng >> 7
	b.rng ^= b.rng << 17
	if float64(b.rng>>11)/(1<<53) < b.P {
		return 1
	}
	return bit
}

// Describe summarizes the attack.
func (b *SamplerBias) Describe() string {
	return fmt.Sprintf("sampler bias: P(force 1)=%.2f after %d raw bits", b.P, b.OnsetBits)
}

// Mark records the moment an attack drill is armed against a shard by
// emitting an injection-marker event (nil-safe: a nil sink records
// nothing). The incident engine (internal/obs/incident) pairs the
// marker with the shard's quarantine, turning the drill into a
// measured detection latency — call it at the attack's logical onset.
func Mark(sink obs.Sink, shard int, s Describer) {
	e := obs.Event{Type: obs.TypeInjectionMarker, Shard: shard, Lane: obs.Any}
	if s != nil {
		e.Detail = s.Describe()
	}
	obs.Emit(sink, e)
}

// LockingDepth estimates the injection depth at which an injected tone
// at frequency fInj fully entrains a ring oscillator of frequency f0
// with thermal period jitter sigma: entrainment requires the
// deterministic per-period pull |fInj − f0|/f0·... to exceed the random
// phase diffusion. The returned depth is the classical Adler threshold
// ΔT/T0 = 2·|fInj − f0|/f0, floored at 4·sigma·f0 so weak detuning still
// needs to beat the noise.
func LockingDepth(f0, fInj, sigma float64) float64 {
	if f0 <= 0 {
		panic("attack: LockingDepth requires f0 > 0")
	}
	detune := 2 * math.Abs(fInj-f0) / f0
	noiseFloor := 4 * sigma * f0
	if detune < noiseFloor {
		return noiseFloor
	}
	return detune
}
