package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/entropyd"
	"repro/internal/obs"
	"repro/internal/obs/incident"
	"repro/internal/osc"
	"repro/internal/sp90b"
	"repro/internal/trng"
)

// EXP-MTX: the measured detection-coverage matrix. Every scenario of
// the attack catalog (internal/attack) runs against a live health-gated
// pool at a pinned operating point, and every defense layer — the
// AIS 31 tot test, the calibration gate (startup), the paper's §V
// thermal monitor, the SP 800-90B assessment, and the DRBG fail-closed
// path — is scored per scenario: detected (with latency in raw bits
// and the incident engine's wall-clock marker→quarantine latency), missed (ran
// a full detection horizon at attack strength without firing), or
// shadowed (another layer quarantined the shard first). The matrix is
// the evidence behind the threat-catalog claims: calibrated monitors
// catch what tot and startup miss, the slow thermal ramp is caught
// only by the assessment, and no scenario goes fully undetected.
//
// Each repetition additionally runs the incident correlation engine
// (internal/obs/incident) as a passive second sink on the rep's
// journal: the supply-ripple row — the only multi-shard attack — must
// fold into exactly ONE correlated incident whose blast radius spans
// every coupled shard, every single-shard scenario must stay
// single-shard, and the control must produce no incident at all.

// Defense layers of the coverage matrix.
const (
	amLayerTot     = "tot"
	amLayerStartup = "startup"
	amLayerMonitor = "monitor"
	amLayerSP90B   = "sp90b"
	amLayerDRBG    = "drbg"
)

// amLayerOrder is the column order of the rendered matrix.
var amLayerOrder = []string{amLayerTot, amLayerStartup, amLayerMonitor, amLayerSP90B, amLayerDRBG}

// Cell outcomes.
const (
	amDetected = "detected"
	amMissed   = "missed"
	amShadowed = "shadowed"
	amNA       = "n/a"
)

// Operating point: the eRO source with jitter amplified 100× (see
// AIS31Run for the same trick) at divider 4 — well mixed, fast to
// simulate — with the full health battery on a tight duty cycle. The
// monitor corridor (W=10 at α=1e-6: low bound ≈ 0.012·ref) and the
// assessment threshold 0.40 (healthy h ≥ 0.52, floor-0.45 ramp
// h ≤ 0.33) were calibrated against this exact configuration; the
// evasion margins below depend on it.
const (
	amDivider     = 4
	amMonitorN    = 64
	amMonitorWin  = 10
	amMonitorEv   = 256
	amMonitorSub  = 64
	amTotWindow   = 64
	amAssessBits  = sp90b.MinBits
	amAssessEvery = sp90b.MinBits
	amMinEntropy  = 0.40
	amSeedTap     = 4096

	// amStreamMinEntropy is the live watermark for the streaming
	// tracker (Options.Stream and EXP-STRLAT). The streaming suite is
	// the six incremental estimators only — no collision/compression
	// conservatism — so its scale sits higher than the batch suite's:
	// at this operating point a healthy shard's live minimum stays
	// ≥ 0.86 while the slow ramp's floor reads ≈ 0.55 (the batch suite
	// says ≥ 0.52 and ≤ 0.33 for the same bits). 0.70 splits the gap.
	amStreamMinEntropy = 0.70

	// amOnsetBits places every attack onset after the 20480-bit epoch-0
	// startup collection, with a healthy pre-onset window for the DRBG
	// liveness check.
	amOnsetBits = 28672
	// amRampBits is the slow ramp duration: long enough that no
	// per-window χ² excursion leaves the monitor's tolerance band.
	amRampBits = 102400

	// amIncidentWindow is the correlation window for the per-rep
	// incident engine. Rep wall time is seconds; a generous window
	// guarantees that the coupled supply-ripple quarantines — detected
	// at different raw-bit latencies but within the same serving loop —
	// land inside one incident, while isolation (a single-shard attack
	// never classifying correlated) is enforced by the unattacked
	// shards staying silent, not by window luck.
	amIncidentWindow = 5 * time.Minute
)

// Detection horizons: how many raw bits of observation opportunity a
// layer gets before a non-detection counts as missed rather than
// shadowed. Opportunity is measured from onset for step attacks and is
// credited with half the ramp for ramped ones (the attack runs at
// ≥50% strength for that long). tot fires within two chunks; the
// monitor within a couple of variance windows; the assessment within
// two collect+wait cycles.
var amHorizon = map[string]uint64{
	amLayerTot:     1024,
	amLayerMonitor: 4096,
	amLayerSP90B:   2 * (amAssessBits + amAssessEvery),
}

// amBound returns the asserted per-class detection-latency bound in raw
// bits from attack ONSET (so ramped attacks get their ramp).
func amBound(layer string, rampBits uint64) uint64 {
	switch layer {
	case amLayerTot:
		return rampBits + 4096
	case amLayerMonitor:
		return rampBits + 16384
	case amLayerSP90B:
		return rampBits + 65536
	}
	return 0
}

// amSpec is one scenario row of the matrix.
type amSpec struct {
	name  string
	class string // expected live-detection layer ("" for the control)
	// alt is an alternate acceptable live layer for rows whose physics
	// is a genuine race (detection latency is then held to whichever
	// layer actually fired).
	alt string
	// shards/attacked shape the pool (defaults: 1 shard, attack shard 0).
	shards   int
	attacked []int
	onset    uint64 // raw bits before attack onset
	ramp     uint64 // raw-bit 0→full ramp (0 = step)
	hold     uint64 // full-strength raw bits before revert
	revert   bool
	budget   uint64 // post-onset raw-bit budget for the live phase
	// persistent attacks re-arm at full strength on every recalibration
	// epoch: the calibration gate must refuse re-admission. Reverting
	// transients arm nothing after epoch 0 and must heal.
	persistent bool
	samplerP   float64 // > 0: sampler-bias row (wraps the bit source)
	// mk builds the oscillator-level scenario for a schedule (nil for
	// the control and sampler rows).
	mk func(f0 float64, sched attack.Schedule) attack.Scenario
}

// amSpecs is the catalog. Expected detection classes follow the
// MEASURED physics of the pinned operating point, not folklore:
//
//   - Deep thermal suppression collapses the per-sample phase walk so
//     far that the bit stream flatlines — the tot test wins the race
//     long before the first full monitor window.
//   - Variance-INFLATING attacks (flicker growth) leave the bits lively
//     and the entropy high; the §V monitor's thermal-high bound is the
//     only layer that sees them.
//   - Entraining tone attacks (injection, locking, supply ripple)
//     squeeze the random jitter but add a deterministic modulation that
//     keeps the bits toggling (no tot) and inflates the monitor-site
//     variance (no thermal-low): the delivered-entropy collapse is what
//     the SP 800-90B assessment catches.
//
// The locking row takes its Adler depth from the HONEST
// paper-calibrated jitter (an attacker locks a real ring; the ×100
// simulation article would demand an unphysical >100% period
// modulation), while the entrainment — the detectable signature — is
// expressed by the suppression either way.
func amSpecs() []amSpec {
	sigma1 := math.Sqrt(core.PaperModel().Phase.SigmaN2Thermal(1))
	return []amSpec{
		{name: "clean", class: "", budget: 49152},
		{name: "thermal-suppression", class: amLayerTot, alt: amLayerSP90B,
			onset: amOnsetBits, budget: 16384, persistent: true,
			mk: func(_ float64, sched attack.Schedule) attack.Scenario {
				// Near-total thermal kill: the phase walk freezes and the
				// stream flatlines, so tot usually fires within the first
				// post-onset chunks. The surviving FLICKER walk can park
				// the frozen phase near a sampling boundary and keep the
				// bits twitching irregularly — then the straddling
				// assessment catches the entropy collapse instead. Either
				// way the shard is out within the tot bound.
				return attack.ThermalSuppression{Factor: 0.999, Sched: sched}
			}},
		{name: "flicker-boost", class: amLayerMonitor, onset: amOnsetBits, budget: 32768, persistent: true,
			mk: func(_ float64, sched attack.Schedule) attack.Scenario {
				return attack.FlickerBoost{Factor: 32, Sched: sched}
			}},
		{name: "noise-kill", class: amLayerTot, onset: amOnsetBits, budget: 16384, persistent: true,
			mk: func(_ float64, sched attack.Schedule) attack.Scenario {
				return attack.NoiseKill{Sched: sched}
			}},
		{name: "freq-injection", class: amLayerSP90B, onset: amOnsetBits, budget: 65536, persistent: true,
			mk: func(f0 float64, sched attack.Schedule) attack.Scenario {
				return attack.Injection{FInj: 1.02 * f0, Depth: 0.01, Sched: sched, JitterSuppression: 0.7}
			}},
		{name: "freq-locking", class: amLayerSP90B, onset: amOnsetBits, budget: 65536, persistent: true,
			mk: func(f0 float64, sched attack.Schedule) attack.Scenario {
				return attack.Locking(f0, 1.005*f0, sigma1, 0.7, sched)
			}},
		{name: "slow-thermal-ramp", class: amLayerSP90B, onset: amOnsetBits, ramp: amRampBits,
			budget: amRampBits + 65536, persistent: true,
			mk: func(_ float64, sched attack.Schedule) attack.Scenario {
				// SlowThermalRamp(floor 0.45) with the schedule made
				// explicit so recalibration epochs arm the reached
				// floor as a step.
				return attack.ThermalSuppression{Factor: 0.55, Sched: sched}
			}},
		{name: "supply-ripple", class: amLayerSP90B, shards: 3, attacked: []int{0, 1},
			onset: amOnsetBits, budget: 65536, persistent: true,
			mk: func(_ float64, sched attack.Schedule) attack.Scenario {
				return attack.SupplyRipple{FRipple: 1e6, Depth: 0.05, Entrain: 0.7, Sched: sched}
			}},
		{name: "transient-flicker", class: amLayerMonitor, onset: amOnsetBits,
			hold: 32768, revert: true, budget: 32768,
			mk: func(_ float64, sched attack.Schedule) attack.Scenario {
				return attack.FlickerBoost{Factor: 32, Sched: sched}
			}},
		{name: "sampler-bias", class: amLayerSP90B, onset: amOnsetBits, budget: 65536,
			persistent: true, samplerP: 0.55},
	}
}

// amRep is the raw outcome of one repetition of one scenario.
type amRep struct {
	liveReason string
	liveLayer  string
	latBits    int64 // primary attacked shard, raw bits from onset
	latSpread  int64 // supply row: |lat(shard0) − lat(shard1)|
	wallSec    float64
	postFull   int64 // observation opportunity in raw bits (ramp/2 credit)
	allCaught  bool
	gateBlock  bool
	healed     bool
	drbgPre    bool
	drbgClosed bool
	drbgServes bool
	falseAlarm bool
	// Incident-engine outcome: total incidents, how many classified
	// correlated, the widest blast radius, and the (single) incident's
	// class when incCount == 1.
	incCount      int
	incCorrelated int
	incBlast      int
	incClass      string
}

// AttackCell is one (scenario, layer) cell aggregated over reps.
type AttackCell struct {
	Layer   string `json:"layer"`
	Outcome string `json:"outcome"`
	// Per-rep outcome counts; MissedRate = Missed / reps.
	Detected   int     `json:"detected"`
	Missed     int     `json:"missed"`
	Shadowed   int     `json:"shadowed"`
	NA         int     `json:"na"`
	MissedRate float64 `json:"missed_rate"`
	// Latency over detected reps, raw bits from attack onset, plus the
	// asserted class bound (0 = no bound for this layer).
	LatencyBitsMean float64 `json:"latency_bits_mean,omitempty"`
	LatencyBitsMax  int64   `json:"latency_bits_max,omitempty"`
	BoundBits       uint64  `json:"bound_bits,omitempty"`
	// LatencyWallMean is the incident engine's marker→quarantine
	// detection latency in seconds (wall clock, reported not asserted).
	LatencyWallMean float64 `json:"latency_wall_s_mean,omitempty"`
}

// AttackRow is one scenario row of the matrix.
type AttackRow struct {
	Scenario      string       `json:"scenario"`
	Description   string       `json:"description"`
	ExpectedLayer string       `json:"expected_layer,omitempty"`
	Shards        int          `json:"shards"`
	Attacked      []int        `json:"attacked,omitempty"`
	OnsetBits     uint64       `json:"onset_bits"`
	RampBits      uint64       `json:"ramp_bits,omitempty"`
	Reps          int          `json:"reps"`
	Cells         []AttackCell `json:"cells"`
	// GateBlocked / Healed / DRBGFailClosed count reps.
	GateBlocked    int `json:"gate_blocked"`
	Healed         int `json:"healed"`
	DRBGFailClosed int `json:"drbg_fail_closed"`
	// LatencySpreadBits is the supply row's max detection-latency gap
	// between the coupled shards (correlated degradation evidence).
	LatencySpreadBits int64 `json:"latency_spread_bits,omitempty"`
	// The incident column: what the correlation engine reconstructed
	// from this scenario's journal (max over reps; the class is
	// rep-invariant and asserted so).
	Incidents           int      `json:"incidents"`
	IncidentClass       string   `json:"incident_class,omitempty"`
	IncidentBlastRadius int      `json:"incident_blast_radius,omitempty"`
	Violations          []string `json:"violations,omitempty"`
}

// AttackMatrixResult is the EXP-MTX outcome.
type AttackMatrixResult struct {
	Layers []string    `json:"layers"`
	Reps   int         `json:"reps"`
	Rows   []AttackRow `json:"rows"`
	// Violations aggregates every broken coverage assertion, prefixed
	// with the scenario name. Empty = the matrix holds.
	Violations []string `json:"violations"`
}

// AttackMatrix runs the full campaign (see AttackMatrixOpts).
func AttackMatrix(scale Scale, seed uint64) (AttackMatrixResult, error) {
	return AttackMatrixOpts(scale, seed, Options{})
}

// AttackMatrixOpts runs the detection-coverage campaign: every catalog
// scenario (optionally filtered to `only` by name) against its own live
// pool, Quick = 1 repetition, Full = 3. Scenario rows are independent
// engine tasks, so the matrix is identical for every worker count.
func AttackMatrixOpts(scale Scale, seed uint64, opt Options, only ...string) (AttackMatrixResult, error) {
	specs := amSpecs()
	// catalog[i] is the scenario's position in the FULL catalog, so a
	// filtered run derives the exact same per-rep seeds (and therefore
	// the exact same rows) as the full matrix.
	catalog := make([]int, len(specs))
	for i := range specs {
		catalog[i] = i
	}
	if len(only) > 0 {
		keep := make(map[string]bool, len(only))
		for _, n := range only {
			keep[strings.TrimSpace(n)] = true
		}
		var sel []amSpec
		var selIdx []int
		for i, sc := range specs {
			if keep[sc.name] {
				sel = append(sel, sc)
				selIdx = append(selIdx, i)
			}
		}
		if len(sel) == 0 {
			return AttackMatrixResult{}, fmt.Errorf("experiments: no attack scenario matches %v", only)
		}
		specs, catalog = sel, selIdx
	}
	reps := 1
	if scale == Full {
		reps = 3
	}
	rows, err := engine.Map(context.Background(), len(specs), func(_ context.Context, i int) (AttackRow, error) {
		sc := specs[i]
		rs := make([]amRep, reps)
		for r := range rs {
			rep, err := sc.run(engine.DeriveSeed(seed, uint64(catalog[i]*16+r)), opt.Stream)
			if err != nil {
				return AttackRow{}, fmt.Errorf("%s rep %d: %w", sc.name, r, err)
			}
			rs[r] = rep
		}
		return sc.aggregate(rs), nil
	}, engine.Jobs(opt.Jobs))
	if err != nil {
		return AttackMatrixResult{}, err
	}
	res := AttackMatrixResult{Layers: amLayerOrder, Reps: reps, Rows: rows, Violations: []string{}}
	for _, row := range rows {
		for _, v := range row.Violations {
			res.Violations = append(res.Violations, row.Scenario+": "+v)
		}
	}
	return res, nil
}

// run executes one repetition: build the pool with the scenario armed
// through the source and monitor hooks, drive it through onset to
// detection (or budget), then probe the calibration gate and the DRBG
// fail-closed path. streamOn additionally arms the sliding-window
// streaming tracker at the matrix operating point (Options.Stream).
func (sc amSpec) run(seed uint64, streamOn bool) (amRep, error) {
	var rep amRep
	m := core.PaperModel().ScaleJitter(100).Phase
	f0 := m.F0
	shards := sc.shards
	if shards == 0 {
		shards = 1
	}
	attacked := sc.attacked
	if attacked == nil && sc.class != "" {
		attacked = []int{0}
	}
	isAttacked := make(map[int]bool, len(attacked))
	for _, a := range attacked {
		isAttacked[a] = true
	}
	// Schedules live in oscillator local time. Source rings advance
	// Divider periods per raw bit; the monitor pair advances MonitorN
	// periods per s_N sample, one sample per MonitorEveryBits raw bits.
	bitsToSec := func(bits uint64) float64 { return float64(bits) * amDivider / f0 }
	srcSched := attack.Schedule{Onset: bitsToSec(sc.onset), Ramp: bitsToSec(sc.ramp),
		Hold: bitsToSec(sc.hold), Revert: sc.revert}
	monScale := float64(amMonitorN) / float64(amMonitorEv*amDivider)

	j := obs.NewJournal(obs.DefaultCapacity)
	eng := incident.New(amIncidentWindow)
	sink := obs.Multi(j, eng)
	health := entropyd.HealthConfig{
		TotWindow:        amTotWindow,
		MonitorN:         amMonitorN,
		MonitorWindow:    amMonitorWin,
		MonitorEveryBits: amMonitorEv,
		MonitorSubdivide: amMonitorSub,
		AssessBits:       amAssessBits,
		AssessEveryBits:  amAssessEvery,
		AssessMinEntropy: amMinEntropy,
	}
	if streamOn {
		health.StreamWindow = amAssessBits
		health.StreamPanes = 4
		health.StreamMinEntropy = amStreamMinEntropy
	}
	cfg := entropyd.Config{
		Shards:       shards,
		Seed:         seed,
		Jobs:         1,
		Source:       entropyd.SourceConfig{Kind: entropyd.SourceERO, Model: m, Divider: amDivider},
		Health:       health,
		SeedTapBytes: amSeedTap,
		Sink:         sink,
		NewSource: func(shard, epoch int, s uint64) (entropyd.RawSource, error) {
			g, err := trng.New(trng.Config{Model: m, Divider: amDivider, Seed: s})
			if err != nil {
				return nil, err
			}
			if !isAttacked[shard] {
				return g, nil
			}
			if sc.samplerP > 0 {
				onset := sc.onset
				if epoch > 0 {
					if !sc.persistent {
						return g, nil
					}
					onset = 0
				}
				return &attack.SamplerBias{Src: g, P: sc.samplerP, OnsetBits: onset,
					Seed: engine.DeriveSeed(s, 0xb1a5)}, nil
			}
			if sc.mk == nil {
				return g, nil
			}
			sched := srcSched
			if epoch > 0 {
				if !sc.persistent {
					return g, nil
				}
				sched = attack.Schedule{} // full strength from the first period
			}
			attack.ArmBoth(g.Pair(), sc.mk(f0, sched))
			return g, nil
		},
		NewMonitorPair: func(shard, epoch int, s uint64) (*osc.Pair, error) {
			pair, err := osc.NewPair(m, 2e-3, osc.Options{Seed: s})
			if err != nil {
				return nil, err
			}
			if !isAttacked[shard] || sc.mk == nil {
				return pair, nil
			}
			sched := srcSched.Scaled(monScale)
			if epoch > 0 {
				if !sc.persistent {
					return pair, nil
				}
				sched = attack.Schedule{}
			}
			attack.ArmBoth(pair, sc.mk(f0, sched))
			return pair, nil
		},
	}
	pool, err := entropyd.New(cfg)
	if err != nil {
		return rep, err
	}
	dp, err := pool.DRBGPool(entropyd.DRBGConfig{})
	if err != nil {
		return rep, err
	}
	var marker attack.Describer
	if sc.samplerP > 0 {
		marker = &attack.SamplerBias{P: sc.samplerP, OnsetBits: sc.onset}
	} else if sc.mk != nil {
		marker = sc.mk(f0, srcSched)
	}

	// Live phase: produce through onset until every attacked shard is
	// quarantined or an undetected one exhausts the budget.
	type det struct {
		reason string
		bits   int64
	}
	found := make(map[int]det, len(attacked))
	primary := 0
	if len(attacked) > 0 {
		primary = attacked[0]
	}
	chunk := make([]byte, 512*shards)
	gbuf := make([]byte, 64)
	preDone := false
	budgetEnd := sc.onset + sc.budget
	for {
		if _, err := pool.Fill(chunk); err != nil && !errors.Is(err, entropyd.ErrStarved) {
			return rep, err
		}
		if !preDone && pool.Shard(primary).RawBits()+4096 >= sc.onset {
			// DRBG liveness just before onset, then the injection
			// markers that start the engine's latency clocks.
			_, gerr := dp.Generate(gbuf, true, 2*time.Second)
			rep.drbgPre = gerr == nil
			for _, a := range attacked {
				attack.Mark(sink, a, marker)
			}
			preDone = true
		}
		for _, a := range attacked {
			if _, ok := found[a]; ok {
				continue
			}
			s := pool.Shard(a)
			if s.State() == entropyd.StateQuarantined {
				found[a] = det{reason: s.LastReason().String(),
					bits: int64(s.RawBits()) - int64(sc.onset)}
			}
		}
		if len(attacked) > 0 && len(found) == len(attacked) {
			rep.allCaught = true
			break
		}
		// Budget is tracked on the slowest still-undetected attacked
		// shard (shard 0 for the control row).
		prog := pool.Shard(primary).RawBits()
		for _, a := range attacked {
			if _, ok := found[a]; !ok && pool.Shard(a).RawBits() > prog {
				prog = pool.Shard(a).RawBits()
			}
		}
		if prog >= budgetEnd {
			break
		}
	}
	for i := 0; i < shards; i++ {
		if !isAttacked[i] && pool.Shard(i).State() != entropyd.StateHealthy {
			rep.falseAlarm = true
		}
	}
	if d, ok := found[primary]; ok {
		rep.liveReason = d.reason
		rep.liveLayer = amReasonLayer(d.reason)
		rep.latBits = d.bits
		rep.postFull = d.bits - int64(sc.ramp)/2
		if lat := eng.Stats().Detection; lat[d.reason] != nil {
			rep.wallSec = lat[d.reason].Mean().Seconds()
		}
	} else {
		rep.postFull = int64(pool.Shard(primary).RawBits()) - int64(sc.onset) - int64(sc.ramp)/2
	}
	if len(attacked) == 2 {
		if a, ok := found[attacked[0]]; ok {
			if b, ok := found[attacked[1]]; ok {
				rep.latSpread = a.bits - b.bits
				if rep.latSpread < 0 {
					rep.latSpread = -rep.latSpread
				}
			}
		}
	}

	// DRBG layer: with every shard under attack and quarantined, the
	// expansion layer must fail closed; with clean shards left (the
	// control and the supply row's bystander) it must keep serving.
	if len(attacked) == shards && rep.allCaught {
		_, gerr := dp.Generate(gbuf, true, 150*time.Millisecond)
		if errors.Is(gerr, entropyd.ErrSeedStarved) {
			ev := j.Read(obs.Query{Shard: obs.Any, Lane: obs.Any, Type: obs.TypeDRBGFailClosed}).Events
			rep.drbgClosed = len(ev) > 0
		}
	} else {
		_, gerr := dp.Generate(gbuf, true, 2*time.Second)
		rep.drbgServes = gerr == nil
	}

	// Calibration gate: persistent attacks re-arm at full strength, so
	// recalibration must keep refusing the shard; the reverting
	// transient arms nothing and must heal.
	if len(found) > 0 {
		ctx := context.Background()
		for i := 0; i < 2 && pool.Shard(primary).State() != entropyd.StateHealthy; i++ {
			pool.Recalibrate(ctx)
		}
		healthy := pool.Shard(primary).State() == entropyd.StateHealthy
		rep.gateBlock = !healthy
		rep.healed = healthy
	}

	// The incident column: what the passive correlation engine folded
	// the rep's alarm stream into.
	incs, _ := eng.Incidents(0)
	rep.incCount = len(incs)
	for _, in := range incs {
		rep.incClass = in.Class
		if in.Class == incident.ClassCorrelated {
			rep.incCorrelated++
		}
		if in.BlastRadius > rep.incBlast {
			rep.incBlast = in.BlastRadius
		}
	}
	return rep, nil
}

// amReasonLayer maps a quarantine reason class to its defense layer.
func amReasonLayer(reason string) string {
	switch reason {
	case "tot":
		return amLayerTot
	case "thermal-low", "thermal-high":
		return amLayerMonitor
	case "low-entropy", "live-low-entropy":
		return amLayerSP90B
	case "startup":
		return amLayerStartup
	}
	return reason
}

// aggregate folds the repetitions of one scenario into its matrix row,
// scoring every layer and collecting assertion violations.
func (sc amSpec) aggregate(rs []amRep) AttackRow {
	shards := sc.shards
	if shards == 0 {
		shards = 1
	}
	attacked := sc.attacked
	if attacked == nil && sc.class != "" {
		attacked = []int{0}
	}
	row := AttackRow{
		Scenario:      sc.name,
		ExpectedLayer: sc.class,
		Shards:        shards,
		Attacked:      attacked,
		OnsetBits:     sc.onset,
		RampBits:      sc.ramp,
		Reps:          len(rs),
	}
	if sc.mk != nil {
		row.Description = sc.mk(core.PaperModel().Phase.F0, attack.Schedule{}).Describe()
	} else if sc.samplerP > 0 {
		row.Description = (&attack.SamplerBias{P: sc.samplerP, OnsetBits: sc.onset}).Describe()
	} else {
		row.Description = "control: no attack armed"
	}
	cells := make(map[string]*AttackCell, len(amLayerOrder))
	for _, l := range amLayerOrder {
		cells[l] = &AttackCell{Layer: l, BoundBits: amBound(l, sc.ramp)}
	}
	violate := func(f string, a ...any) { row.Violations = append(row.Violations, fmt.Sprintf(f, a...)) }

	for _, r := range rs {
		// Live layers: tot, monitor, sp90b.
		for _, l := range []string{amLayerTot, amLayerMonitor, amLayerSP90B} {
			c := cells[l]
			switch {
			case sc.class == "":
				c.NA++
			case r.liveLayer == l:
				c.Detected++
				c.LatencyBitsMean += float64(r.latBits)
				if r.latBits > c.LatencyBitsMax {
					c.LatencyBitsMax = r.latBits
				}
				c.LatencyWallMean += r.wallSec
			case r.liveLayer != "" && r.postFull < int64(amHorizon[l]):
				c.Shadowed++
			case r.postFull >= int64(amHorizon[l]):
				c.Missed++
			default:
				c.NA++
			}
		}
		switch {
		case sc.persistent:
			if r.gateBlock {
				cells[amLayerStartup].Detected++
			} else {
				cells[amLayerStartup].Missed++
			}
			if !r.gateBlock {
				violate("calibration gate re-admitted the shard under a persistent attack")
			}
		default:
			cells[amLayerStartup].NA++
		}
		switch {
		case len(attacked) == shards && sc.class != "":
			if r.drbgClosed {
				cells[amLayerDRBG].Detected++
			} else {
				cells[amLayerDRBG].Missed++
				violate("DRBG did not fail closed with every shard quarantined")
			}
		default:
			cells[amLayerDRBG].NA++
			if !r.drbgServes {
				violate("DRBG stopped serving although a healthy shard remained")
			}
		}
		if r.gateBlock {
			row.GateBlocked++
		}
		if r.healed {
			row.Healed++
		}
		if r.drbgClosed {
			row.DRBGFailClosed++
		}
		if r.latSpread > row.LatencySpreadBits {
			row.LatencySpreadBits = r.latSpread
		}
		if !r.drbgPre {
			violate("DRBG was not serving before the attack onset")
		}
		if r.falseAlarm {
			violate("an unattacked shard was quarantined (false alarm)")
		}
		// The incident column. Correlation is an attack property, not a
		// window artifact: only the multi-shard supply row may (and
		// must) correlate, and its blast radius must span exactly the
		// coupled shards.
		if r.incCount > row.Incidents {
			row.Incidents = r.incCount
		}
		if r.incBlast > row.IncidentBlastRadius {
			row.IncidentBlastRadius = r.incBlast
		}
		if r.incClass != "" {
			row.IncidentClass = r.incClass
		}
		switch {
		case sc.class == "":
			if r.incCount != 0 {
				violate("incident engine opened %d incident(s) on the control run", r.incCount)
			}
		case len(attacked) >= 2:
			if r.incCount != 1 || r.incClass != incident.ClassCorrelated || r.incBlast != len(attacked) {
				violate("coupled attack folded into %d incident(s), class %q, blast %d — want one correlated incident spanning all %d attacked shards",
					r.incCount, r.incClass, r.incBlast, len(attacked))
			}
		default:
			if r.incCorrelated != 0 {
				violate("a single-shard attack produced a correlated incident")
			}
			if r.allCaught && r.incCount == 0 {
				violate("shard quarantined but the incident engine recorded nothing")
			}
		}
		if sc.class == "" {
			if r.liveLayer != "" || r.falseAlarm {
				violate("control run alarmed (%s)", r.liveReason)
			}
			continue
		}
		if !r.allCaught {
			violate("an attacked shard was never quarantined within the budget")
		}
		if r.liveLayer == "" {
			violate("no defense layer detected the attack live")
		} else if r.liveLayer != sc.class && (sc.alt == "" || r.liveLayer != sc.alt) {
			violate("live detection by %s (reason %s), expected %s", r.liveLayer, r.liveReason, sc.class)
		} else if bound := amBound(sc.class, sc.ramp); bound > 0 && r.latBits > int64(bound) {
			violate("detection latency %d raw bits exceeds the %s bound %d", r.latBits, sc.class, bound)
		}
		if sc.revert && !r.healed {
			violate("shard did not heal after the transient reverted")
		}
	}
	// The evasion assertion: the slow ramp must be MISSED (not merely
	// shadowed) by tot and the monitor in every rep, and its latency
	// must exceed the monitor's bound — only the assessment sees it.
	if sc.class == amLayerSP90B && sc.ramp > 0 {
		for _, l := range []string{amLayerTot, amLayerMonitor} {
			if c := cells[l]; c.Missed != len(rs) {
				violate("evasion broken: %s missed %d/%d reps (must miss all)", l, c.Missed, len(rs))
			}
		}
		if mb := amBound(amLayerMonitor, 0); cells[amLayerSP90B].LatencyBitsMax <= int64(mb) {
			violate("evasion latency %d within the monitor bound %d — not a slow-layer catch",
				cells[amLayerSP90B].LatencyBitsMax, mb)
		}
	}
	for _, l := range amLayerOrder {
		c := cells[l]
		if c.Detected > 0 {
			c.LatencyBitsMean /= float64(c.Detected)
			c.LatencyWallMean /= float64(c.Detected)
		}
		c.MissedRate = float64(c.Missed) / float64(len(rs))
		switch {
		case c.Detected == len(rs):
			c.Outcome = amDetected
		case c.Missed == len(rs):
			c.Outcome = amMissed
		case c.Shadowed == len(rs):
			c.Outcome = amShadowed
		case c.NA == len(rs):
			c.Outcome = amNA
		case c.Shadowed+c.Missed == len(rs):
			// A miss/shadow mix is detection-latency jitter around the
			// layer's horizon, not flaky coverage; score it by the
			// majority (the missed-rate field keeps the exact split).
			c.Outcome = amShadowed
			if c.Missed >= c.Shadowed {
				c.Outcome = amMissed
			}
		default:
			c.Outcome = "mixed"
			violate("layer %s outcome is rep-dependent (%d det/%d miss/%d shadow/%d na)",
				l, c.Detected, c.Missed, c.Shadowed, c.NA)
		}
		row.Cells = append(row.Cells, *c)
	}
	return row
}

// Table renders the coverage matrix.
func (r AttackMatrixResult) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXP-MTX  attack campaign: detection coverage per (scenario × defense layer), %d rep(s)\n", r.Reps)
	fmt.Fprintf(&b, "%-22s", "scenario")
	for _, l := range r.Layers {
		fmt.Fprintf(&b, " %-14s", l)
	}
	fmt.Fprintf(&b, " %s\n", "latency[rawbits] (mean, detecting layer)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-22s", row.Scenario)
		lat := "-"
		for _, c := range row.Cells {
			mark := c.Outcome
			switch c.Outcome {
			case amDetected:
				mark = "DETECT"
			case amMissed:
				mark = "miss"
			case amShadowed:
				mark = "shadow"
			case amNA:
				mark = "-"
			}
			fmt.Fprintf(&b, " %-14s", mark)
			if c.Outcome == amDetected && c.Layer == row.ExpectedLayer {
				lat = fmt.Sprintf("%.0f (wall %.3gs)", c.LatencyBitsMean, c.LatencyWallMean)
			}
		}
		fmt.Fprintf(&b, " %s\n", lat)
		if row.LatencySpreadBits > 0 {
			fmt.Fprintf(&b, "%-22s correlated-shard detection spread: %d raw bits\n", "", row.LatencySpreadBits)
		}
		if row.Incidents > 0 {
			fmt.Fprintf(&b, "%-22s incidents: %d %s (blast radius %d)\n", "",
				row.Incidents, row.IncidentClass, row.IncidentBlastRadius)
		}
	}
	if len(r.Violations) == 0 {
		fmt.Fprintf(&b, "coverage assertions: all hold (no scenario fully undetected, evasion case confirmed)\n")
	} else {
		fmt.Fprintf(&b, "COVERAGE VIOLATIONS (%d):\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
	}
	return b.String()
}
