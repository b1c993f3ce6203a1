// Leapfrog fast-forward: O(1)-per-window oscillator advance.
//
// The edge-level simulator pays ~(poles + 1) Gaussian draws per period,
// so an output bit that accumulates K ≈ 10⁵ periods of jitter (the
// paper's honest operating point) costs millions of draws. The leapfrog
// path advances a window of n periods at O(poles) cost: the thermal
// contribution of the window is a single N(0, n·σ²) draw, and the
// flicker contribution comes from flicker.Summer.AdvanceSum, which
// draws each AR(1) pole's (end state, window sum) pair from its exact
// joint Gaussian law. The jump is therefore exact in distribution —
// including the cross-window autocorrelation the paper's analysis is
// about, carried through the pole end states — and deterministic in the
// seed, but it is a DIFFERENT realization from stepping the same window
// edge by edge: the edge-level path remains the golden reference, and
// equivalence is distributional (see the σ²_N sweep tests in
// internal/measure).
//
// # Landing before a sampling instant
//
// Consumers that sample waveforms (measure.Counter's TDC interpolation,
// the trng DFF, multiring) need the exact edges that straddle a
// sampling instant t. LeapfrogToBefore jumps toward t in stages, each
// sized to stay short of t by a fixed multiple of that stage's own
// jitter σ. Flicker σ grows linearly with the span (paper eq. 11), so
// a single jump leaves a margin proportional to the span — ~460
// periods at the calibrated paper model and K = 640000. Re-estimating
// the gap after each jump and jumping again shrinks the margin to a
// few periods in two stages, and only those edges around t are walked
// exactly. Each jump is an exact Markov transition of the oscillator
// state, so composing them keeps the landing exact in distribution.
//
// # Fallback
//
// A Modulator models a deterministic per-period disturbance (injection
// attack, drift); skipping periods would skip its samples, so any
// installed Modulator forces the edge-level path. Likewise a flicker
// backend without closed-form skip (Kasdin) falls back. The fallback is
// internal: Leapfrog and LeapfrogToBefore stay correct, only slower,
// so consumers need no mode branches.

package osc

import (
	"math"

	"repro/internal/flicker"
)

// leapfrogMinJump is the smallest closed-form jump worth taking; below
// it the fixed O(poles) jump cost exceeds plain stepping.
const leapfrogMinJump = 4

// leapfrogSlackSigma sizes the landing margin of each LeapfrogToBefore
// stage in units of that stage's time-jitter standard deviation. The
// flicker term of the margin estimate is additionally doubled (the
// sum-of-OU spectrum can exceed the asymptotic 1/f law near the band
// edges), so the effective margin stays ≥ leapfrogSlackSigma σ;
// overshoot probability is below ~1e-50 per jump for any physical
// model.
const leapfrogSlackSigma = 16

// CanLeapfrog reports whether the closed-form fast path is available:
// no Modulator installed and the flicker backend (if any) supports
// AdvanceSum. When false, Leapfrog and LeapfrogToBefore silently use
// the edge-level path.
func (o *Oscillator) CanLeapfrog() bool {
	if o.mod != nil {
		return false
	}
	if o.fm == nil {
		return true
	}
	_, ok := o.fm.(flicker.Summer)
	return ok
}

// Leapfrog advances the oscillator by n periods and returns the time of
// the last edge (Now() afterwards). Cost is O(poles) regardless of n on
// the fast path; when CanLeapfrog is false, or n is too small for a
// jump to pay off, the n periods are stepped exactly instead — the
// same edges a twin oscillator emits through NextEdges.
//
// Same seed + same call sequence ⇒ same stream.
func (o *Oscillator) Leapfrog(n int) float64 {
	if n >= leapfrogMinJump && o.CanLeapfrog() {
		o.jump(n)
		return o.t
	}
	for i := 0; i < n; i++ {
		o.NextPeriod()
	}
	return o.t
}

// jump advances m periods in closed form: Δt is the nominal span plus
// one thermal draw for the window sum plus the flicker window sum from
// AdvanceSum. Draw order matches NextPeriod (thermal from the
// oscillator's source first, then flicker from the generator's own
// source), so the fast path is seed-deterministic. The per-period
// clamp of NextPeriod is not applied inside the jump (its trigger
// probability is astronomically small for any physical noise scale);
// only the whole-window total is floored to keep time monotone.
func (o *Oscillator) jump(m int) {
	dt := float64(m) * o.period0
	if o.sigmaTh > 0 {
		dt += o.thScale * o.sigmaTh * math.Sqrt(float64(m)) * o.src.Norm()
	}
	if o.fm != nil {
		dt += o.flScale * o.period0 * o.fm.(flicker.Summer).AdvanceSum(m)
	}
	if floor := float64(m) * o.period0 * 1e-3; dt < floor {
		dt = floor
	}
	o.t += dt
	o.index += uint64(m)
}

// LeapfrogToBefore fast-forwards the oscillator toward the absolute
// time t and returns the total number of periods advanced. It jumps in
// stages: each stage re-estimates the remaining gap from Now() and
// jumps that many periods less its slack margin (see
// leapfrogSlackSigma), so every landing stays strictly before t with
// overwhelming probability, until the next jump would be shorter than
// leapfrogMinJump. The caller closes the last few periods by walking
// edges exactly (NextEdge) until it straddles t — the pattern every
// waveform-sampling consumer uses. Returns 0 when t is too close for a
// jump to pay off (or already past); the caller's exact walk then
// simply does all the work.
//
// The caller must have consumed the oscillator's edges up to Now() —
// i.e. no unconsumed read-ahead — since the jumps advance from the
// oscillator's own cursor.
func (o *Oscillator) LeapfrogToBefore(t float64) uint64 {
	if !o.CanLeapfrog() {
		return 0
	}
	var total uint64
	for {
		est := (t - o.t) / o.period0
		if !(est > 0 && est < 1<<53) {
			// Past, NaN, or a nonsensical horizon (would overflow exact
			// float integers): leave it to the caller's edge walk.
			return total
		}
		m := int(est) - o.slackPeriods(est)
		if m < leapfrogMinJump {
			return total
		}
		o.jump(m)
		total += uint64(m)
	}
}

// slackPeriods returns the landing margin for a jump of ~m periods: the
// accumulated time jitter of the span (thermal m·σ², flicker
// 8·ln2·b_fl·m²/f0⁴ doubled for band-edge headroom, both under the
// current attack scales) times leapfrogSlackSigma, expressed in
// periods, plus a small constant for the interpolation straddle.
func (o *Oscillator) slackPeriods(m float64) int {
	f0 := o.model.F0
	v := m * o.sigmaTh * o.sigmaTh * o.thScale * o.thScale
	if o.model.Bfl > 0 {
		v += 2 * 8 * math.Ln2 * o.model.Bfl * m * m / (f0 * f0 * f0 * f0) * o.flScale * o.flScale
	}
	return int(math.Ceil(leapfrogSlackSigma*math.Sqrt(v)*f0)) + 2
}
