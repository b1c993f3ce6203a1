package osc

import (
	"math"
	"testing"

	"repro/internal/phase"
)

// leapModel is a paper-like per-ring model used across the leapfrog
// tests.
var leapModel = phase.Model{Bth: 138, Bfl: 2.6e-2, F0: 103e6}

func newLeapOsc(t testing.TB, seed uint64, opt Options) *Oscillator {
	t.Helper()
	opt.Seed = seed
	o, err := New(leapModel, opt)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestLeapfrogDeterminism pins the fast path's seed determinism:
// identical seeds and window sequences give identical end times,
// identical Now/Index, and identical subsequent scalar streams.
func TestLeapfrogDeterminism(t *testing.T) {
	a := newLeapOsc(t, 7, Options{})
	b := newLeapOsc(t, 7, Options{})
	if !a.CanLeapfrog() {
		t.Fatal("plain oscillator must support leapfrog")
	}
	for _, n := range []int{100_000, 1, 17, 4096, 0} {
		idx := a.Index()
		ea := a.Leapfrog(n)
		eb := b.Leapfrog(n)
		if ea != eb {
			t.Fatalf("n=%d: end times differ: %g vs %g", n, ea, eb)
		}
		if a.Index() != idx+uint64(n) {
			t.Fatalf("n=%d: index advanced by %d, want %d", n, a.Index()-idx, n)
		}
		if a.Now() != b.Now() || a.Now() != ea {
			t.Fatalf("n=%d: Now %g vs %g vs returned end %g", n, a.Now(), b.Now(), ea)
		}
	}
	for i := 0; i < 100; i++ {
		if a.NextPeriod() != b.NextPeriod() {
			t.Fatalf("scalar streams diverged after leapfrog at step %d", i)
		}
	}
}

// TestLeapfrogFallsBackToEdgePath pins the bit-exact fallback: with a
// Modulator installed, with the Kasdin flicker backend, or when the
// window is too small for a jump, Leapfrog must end on exactly the
// edge a twin oscillator reaches with NextEdges.
func TestLeapfrogFallsBackToEdgePath(t *testing.T) {
	cases := []struct {
		name string
		opt  Options
		n    int
		can  bool
	}{
		{"modulator", Options{Modulator: func(t float64, i uint64) float64 { return 1e-12 }}, 2000, false},
		{"kasdin", Options{FlickerGenerator: "kasdin"}, 2000, false},
		{"small-window", Options{}, leapfrogMinJump - 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newLeapOsc(t, 11, tc.opt)
			b := newLeapOsc(t, 11, tc.opt)
			if got := a.CanLeapfrog(); got != tc.can {
				t.Fatalf("CanLeapfrog = %v, want %v", got, tc.can)
			}
			end := a.Leapfrog(tc.n)
			edges := b.NextEdges(make([]float64, tc.n))
			if end != edges[tc.n-1] {
				t.Fatalf("end %g vs edge path %g", end, edges[tc.n-1])
			}
			if a.Now() != b.Now() || a.Index() != b.Index() {
				t.Fatalf("fallback state mismatch: Now %g vs %g, Index %d vs %d", a.Now(), b.Now(), a.Index(), b.Index())
			}
			for i := 0; i < 100; i++ {
				if a.NextPeriod() != b.NextPeriod() {
					t.Fatalf("streams diverged after fallback at step %d", i)
				}
			}
		})
	}
}

// TestLeapfrogJumpDistribution checks the fast path's first two moments
// against the edge path over an ensemble: the advance of an n-period
// window has mean n·T0 and the same variance as n stepped periods.
func TestLeapfrogJumpDistribution(t *testing.T) {
	const (
		trials = 1500
		n      = 4096
	)
	span := func(fast bool) []float64 {
		out := make([]float64, trials)
		for i := range out {
			o := newLeapOsc(t, uint64(i)*2+uint64(boolBit(fast))+3, Options{})
			t0 := o.Now()
			if fast {
				o.Leapfrog(n)
			} else {
				o.NextEdges(make([]float64, n))
			}
			out[i] = o.Now() - t0
		}
		return out
	}
	mv := func(xs []float64) (mean, vr float64) {
		for _, x := range xs {
			mean += x
		}
		mean /= float64(len(xs))
		for _, x := range xs {
			vr += (x - mean) * (x - mean)
		}
		return mean, vr / float64(len(xs))
	}
	em, ev := mv(span(false))
	fm, fv := mv(span(true))
	t0 := 1 / leapModel.F0
	if math.Abs(em-float64(n)*t0) > 6*math.Sqrt(ev/trials) || math.Abs(fm-float64(n)*t0) > 6*math.Sqrt(fv/trials) {
		t.Fatalf("window span means: edge %g, fast %g, want %g", em, fm, float64(n)*t0)
	}
	if r := fv / ev; r < 0.8 || r > 1.25 {
		t.Fatalf("window span variance ratio fast/edge = %g (edge %g, fast %g)", r, ev, fv)
	}
}

// TestLeapfrogToBefore checks the jump-to-time primitive: it must land
// strictly before the target with a modest walk remaining, account its
// periods exactly, and refuse to jump when the target is too close,
// already past, or the oscillator cannot leapfrog.
func TestLeapfrogToBefore(t *testing.T) {
	o := newLeapOsc(t, 5, Options{})
	t0 := 1 / leapModel.F0
	for w := 0; w < 50; w++ {
		target := o.Now() + 100_000*t0
		idx := o.Index()
		j := o.LeapfrogToBefore(target)
		if j == 0 {
			t.Fatalf("window %d: no jump over a 100k-period gap", w)
		}
		if o.Index() != idx+j {
			t.Fatalf("window %d: index advanced %d, jump reported %d", w, o.Index()-idx, j)
		}
		if o.Now() >= target {
			t.Fatalf("window %d: jump overshot: Now %g >= target %g", w, o.Now(), target)
		}
		// The remaining walk is the last stage's slack margin: a few
		// edges.
		walked := 0
		for o.Now() < target {
			o.NextEdge()
			walked++
			if walked > 10_000 {
				t.Fatalf("window %d: walk after jump did not terminate", w)
			}
		}
		if walked > 2_000 {
			t.Fatalf("window %d: %d edges walked after jump — slack margin far too wide", w, walked)
		}
	}
	if j := o.LeapfrogToBefore(o.Now() - t0); j != 0 {
		t.Fatalf("jumped %d periods toward a past target", j)
	}
	if j := o.LeapfrogToBefore(o.Now() + 3*t0); j != 0 {
		t.Fatalf("jumped %d periods over a tiny gap", j)
	}
	o.SetModulator(func(float64, uint64) float64 { return 0 })
	if j := o.LeapfrogToBefore(o.Now() + 100_000*t0); j != 0 {
		t.Fatalf("jumped %d periods with a modulator installed", j)
	}
}

// TestLeapfrogMonotoneTime checks edge-time monotonicity across mixed
// fast and exact advancement.
func TestLeapfrogMonotoneTime(t *testing.T) {
	o := newLeapOsc(t, 9, Options{})
	last := o.Now()
	for i := 0; i < 200; i++ {
		var now float64
		if i%3 == 0 {
			now = o.NextEdge()
		} else {
			now = o.Leapfrog(1000 + i)
		}
		if now <= last {
			t.Fatalf("step %d: time went backwards: %g -> %g", i, last, now)
		}
		last = now
	}
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}
