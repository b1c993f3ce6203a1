package osc_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/osc"
)

// TestLeapfrogToBeforeNeverOvershoots drives the staged jump-to-time
// primitive at the operating point trngd serves — the calibrated paper
// model and divider K = 640000 — for 2·10⁵ landings per noise scale and
// counts landings at or past the target. Any overshoot would count
// edges beyond a sampling instant, so the count must be zero; the walk
// that closes each landing must stay a few edges. The scales are set
// through the setters, so no Modulator is installed and the fast path
// stays engaged: nominal, the slow-ramp attack's thermal floor (0.45)
// and a ×4 flicker amplitude.
func TestLeapfrogToBeforeNeverOvershoots(t *testing.T) {
	const (
		divider  = 640_000
		landings = 200_000
		maxWalk  = 32
	)
	model := core.PaperModel().ScaleJitter(1).Phase
	t0 := 1 / model.F0
	for i, tc := range []struct {
		name             string
		thermal, flicker float64
	}{
		{"nominal", 1, 1},
		{"thermal-0.45", 0.45, 1},
		{"flicker-x4", 1, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := osc.New(model, osc.Options{Seed: uint64(i) + 1})
			if err != nil {
				t.Fatal(err)
			}
			o.SetThermalScale(tc.thermal)
			o.SetFlickerScale(tc.flicker)
			if !o.CanLeapfrog() {
				t.Fatal("scale setters must keep the fast path engaged")
			}
			var overshoots, worst int
			target := o.Now()
			for l := 0; l < landings; l++ {
				// Sampling instants advance by K periods plus a varying
				// fraction, as another ring's divided edges would.
				target += (divider + float64(l%97)/97) * t0
				if o.LeapfrogToBefore(target) == 0 {
					t.Fatalf("landing %d: no jump over a %d-period gap", l, divider)
				}
				if o.Now() >= target {
					overshoots++
					continue
				}
				walked := 0
				for o.Now() < target {
					o.NextEdge()
					walked++
				}
				if walked > worst {
					worst = walked
				}
			}
			if overshoots > 0 {
				t.Fatalf("%d of %d landings overshot the target", overshoots, landings)
			}
			if worst > maxWalk {
				t.Fatalf("up to %d edges walked after a landing, want <= %d", worst, maxWalk)
			}
			t.Logf("%d landings, 0 overshoots, at most %d edges walked", landings, worst)
		})
	}
}
