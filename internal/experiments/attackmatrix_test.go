package experiments

import (
	"testing"
)

func amFindRow(t *testing.T, r AttackMatrixResult, scenario string) AttackRow {
	t.Helper()
	for _, row := range r.Rows {
		if row.Scenario == scenario {
			return row
		}
	}
	t.Fatalf("scenario %q missing from the matrix", scenario)
	return AttackRow{}
}

func amFindCell(t *testing.T, row AttackRow, layer string) AttackCell {
	t.Helper()
	for _, c := range row.Cells {
		if c.Layer == layer {
			return c
		}
	}
	t.Fatalf("layer %q missing from scenario %q", layer, row.Scenario)
	return AttackCell{}
}

// TestAttackMatrixEvasionCase pins the headline adversarial claim: a
// temperature ramp slow enough to keep every per-sample statistic
// inside its per-window tolerance sails past tot, the startup battery
// re-runs, and the §V monitor pair — and is caught only by the
// SP 800-90B assessment, with the long detection latency recorded
// by the incident engine from the injection marker.
func TestAttackMatrixEvasionCase(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-pool campaign")
	}
	t.Parallel()
	r, err := AttackMatrixOpts(Quick, 1, Options{}, "slow-thermal-ramp")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("coverage violations: %v", r.Violations)
	}
	row := amFindRow(t, r, "slow-thermal-ramp")

	// The fast layers must MISS — not merely be shadowed: each had the
	// whole ramp as observation opportunity and stayed silent.
	for _, l := range []string{"tot", "monitor"} {
		if c := amFindCell(t, row, l); c.Outcome != amMissed || c.MissedRate != 1 {
			t.Errorf("%s: outcome %q missed-rate %.2f, want a clean miss", l, c.Outcome, c.MissedRate)
		}
	}
	// The startup battery blocks recalibration once quarantined, but it
	// never catches the ramp live; the gate must have refused
	// re-admission in every rep (the attack re-arms at the reached
	// floor).
	if row.GateBlocked != row.Reps {
		t.Errorf("calibration gate blocked %d/%d reps", row.GateBlocked, row.Reps)
	}

	// Only the assessment sees it, far beyond the monitor's bound, and
	// inside its own.
	c := amFindCell(t, row, "sp90b")
	if c.Outcome != amDetected {
		t.Fatalf("sp90b outcome %q, want detected", c.Outcome)
	}
	if mb := amBound(amLayerMonitor, 0); c.LatencyBitsMax <= int64(mb) {
		t.Errorf("sp90b latency %d raw bits is within the step-attack monitor bound %d — not an evasion",
			c.LatencyBitsMax, mb)
	}
	if c.LatencyBitsMax <= int64(row.RampBits) {
		t.Errorf("sp90b latency %d raw bits inside the %d-bit ramp: the ramp was not slow enough",
			c.LatencyBitsMax, row.RampBits)
	}
	if c.BoundBits > 0 && c.LatencyBitsMax > int64(c.BoundBits) {
		t.Errorf("sp90b latency %d raw bits exceeds its own bound %d", c.LatencyBitsMax, c.BoundBits)
	}
	// The engine's marker→quarantine detection latency must be a real
	// wall-clock latency for the detection.
	if c.LatencyWallMean <= 0 {
		t.Errorf("engine recorded no wall-clock detection latency (mean %v s)", c.LatencyWallMean)
	}
	// Entropy collapse must shut the expansion layer, not just the raw
	// taps.
	if row.DRBGFailClosed != row.Reps {
		t.Errorf("DRBG failed closed in %d/%d reps", row.DRBGFailClosed, row.Reps)
	}
}

// TestAttackMatrixLayerSeparation runs a fast catalog subset and checks
// the complementary-coverage claims: the monitor catches what tot
// misses, tot catches what the monitor never sees, and the control row
// stays silent everywhere.
func TestAttackMatrixLayerSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-pool campaign")
	}
	t.Parallel()
	r, err := AttackMatrixOpts(Quick, 1, Options{}, "clean", "flicker-boost", "noise-kill")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("coverage violations: %v", r.Violations)
	}

	clean := amFindRow(t, r, "clean")
	for _, c := range clean.Cells {
		if c.Outcome != amNA {
			t.Errorf("control row, layer %s: outcome %q, want n/a", c.Layer, c.Outcome)
		}
	}

	// Variance inflation is invisible to the flatline test and caught
	// by the calibrated monitor pair.
	fb := amFindRow(t, r, "flicker-boost")
	if c := amFindCell(t, fb, "monitor"); c.Outcome != amDetected {
		t.Errorf("flicker-boost monitor outcome %q, want detected", c.Outcome)
	}
	if c := amFindCell(t, fb, "tot"); c.Outcome != amMissed {
		t.Errorf("flicker-boost tot outcome %q, want missed", c.Outcome)
	}

	// A dead source flatlines: tot fires within its bound before the
	// monitor completes a window.
	nk := amFindRow(t, r, "noise-kill")
	c := amFindCell(t, nk, "tot")
	if c.Outcome != amDetected {
		t.Fatalf("noise-kill tot outcome %q, want detected", c.Outcome)
	}
	if c.LatencyBitsMax > int64(c.BoundBits) {
		t.Errorf("noise-kill tot latency %d exceeds bound %d", c.LatencyBitsMax, c.BoundBits)
	}
	// Both attacks fully deny the (single-shard) pool: the DRBG must
	// fail closed, and the startup gate must hold the persistent ones.
	for _, row := range []AttackRow{fb, nk} {
		if row.DRBGFailClosed != row.Reps {
			t.Errorf("%s: DRBG failed closed in %d/%d reps", row.Scenario, row.DRBGFailClosed, row.Reps)
		}
		if row.GateBlocked != row.Reps {
			t.Errorf("%s: calibration gate blocked %d/%d reps", row.Scenario, row.GateBlocked, row.Reps)
		}
	}
}

// TestAttackMatrixIncidentColumn pins the incident-correlation claims:
// the supply-ripple row — two shards degraded by the same supply rail —
// folds into exactly ONE correlated incident whose blast radius is the
// coupled-shard count, a single-shard attack stays single-shard, and
// the control opens no incident at all.
func TestAttackMatrixIncidentColumn(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-pool campaign")
	}
	t.Parallel()
	r, err := AttackMatrixOpts(Quick, 1, Options{}, "clean", "noise-kill", "supply-ripple")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("coverage violations: %v", r.Violations)
	}

	sr := amFindRow(t, r, "supply-ripple")
	if sr.Incidents != 1 || sr.IncidentClass != "correlated" {
		t.Errorf("supply-ripple: %d incident(s) class %q, want one correlated",
			sr.Incidents, sr.IncidentClass)
	}
	if sr.IncidentBlastRadius != len(sr.Attacked) {
		t.Errorf("supply-ripple blast radius %d, want the coupled-shard count %d",
			sr.IncidentBlastRadius, len(sr.Attacked))
	}

	nk := amFindRow(t, r, "noise-kill")
	if nk.Incidents != 1 || nk.IncidentClass != "single-shard" || nk.IncidentBlastRadius != 1 {
		t.Errorf("noise-kill: %d incident(s) class %q blast %d, want one single-shard blast-1",
			nk.Incidents, nk.IncidentClass, nk.IncidentBlastRadius)
	}

	clean := amFindRow(t, r, "clean")
	if clean.Incidents != 0 || clean.IncidentClass != "" {
		t.Errorf("control row opened incidents: %d %q", clean.Incidents, clean.IncidentClass)
	}
}
