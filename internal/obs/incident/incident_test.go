package incident

import (
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

var base = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

func ev(t obs.Type, shard int, at time.Time, reason string) obs.Event {
	return obs.Event{Type: t, Shard: shard, At: at, Reason: reason}
}

// quarCycle plays one full alarm→quarantine→recalibrate→heal cycle on
// a shard, with the heal landing dur after the opening alarm.
func quarCycle(e *Engine, shard int, at time.Time, dur time.Duration) {
	e.Emit(ev(obs.TypeAlarm, shard, at, "tot"))
	e.Emit(ev(obs.TypeQuarantine, shard, at, "tot"))
	e.Emit(ev(obs.TypeRecalibrate, shard, at.Add(dur/2), ""))
	e.Emit(ev(obs.TypeHeal, shard, at.Add(dur), ""))
}

// Two shards alarming inside the correlation window are ONE correlated
// incident with blast radius 2.
func TestCorrelatedWithinWindow(t *testing.T) {
	t.Parallel()
	e := New(5 * time.Second)
	e.Emit(ev(obs.TypeAlarm, 0, base, "tot"))
	e.Emit(ev(obs.TypeQuarantine, 0, base, "tot"))
	e.Emit(ev(obs.TypeAlarm, 1, base.Add(2*time.Second), "thermal-low"))
	e.Emit(ev(obs.TypeQuarantine, 1, base.Add(2*time.Second), "thermal-low"))

	incs, last := e.Incidents(0)
	if last != 1 || len(incs) != 1 {
		t.Fatalf("want one incident, got last=%d incs=%+v", last, incs)
	}
	in := incs[0]
	if in.Class != ClassCorrelated || in.BlastRadius != 2 || in.Resolved {
		t.Fatalf("classification: %+v", in)
	}
	if len(in.Shards) != 2 || in.Shards[0].Shard != 0 || in.Shards[1].Shard != 1 {
		t.Fatalf("timelines: %+v", in.Shards)
	}
	if in.Shards[1].AlarmReason != "thermal-low" {
		t.Fatalf("alarm reason: %+v", in.Shards[1])
	}
	st := e.Stats()
	if st.Open != 1 || st.OpenByClass[ClassCorrelated] != 1 ||
		st.Totals[ClassCorrelated] != 1 || st.Totals[ClassSingleShard] != 0 {
		t.Fatalf("stats: %+v", st)
	}

	// Healing both shards resolves the incident and records MTTR.
	e.Emit(ev(obs.TypeRecalibrate, 0, base.Add(10*time.Second), ""))
	e.Emit(ev(obs.TypeHeal, 0, base.Add(12*time.Second), ""))
	e.Emit(ev(obs.TypeHeal, 1, base.Add(13*time.Second), ""))
	incs, _ = e.Incidents(0)
	if len(incs) != 1 || !incs[0].Resolved {
		t.Fatalf("not resolved: %+v", incs)
	}
	if got := incs[0].MTTRSeconds; got != 13 {
		t.Fatalf("MTTR %v, want 13s", got)
	}
	if incs[0].Shards[0].Recalibrate.IsZero() || incs[0].Shards[0].Heal.IsZero() {
		t.Fatalf("timeline milestones missing: %+v", incs[0].Shards[0])
	}
	st = e.Stats()
	if st.Open != 0 || st.BlastCount != 1 || st.BlastSum != 2 {
		t.Fatalf("post-resolve stats: %+v", st)
	}
	if s := st.MTTR[ClassCorrelated]; s == nil || s.Count() != 1 {
		t.Fatalf("MTTR histogram: %+v", st.MTTR)
	}
	// Final radius 2 lands in the le=2 bucket.
	if st.BlastBuckets[1] != 1 {
		t.Fatalf("blast buckets: %v", st.BlastBuckets)
	}
}

// The same two shards alarming OUTSIDE the window are two independent
// single-shard incidents.
func TestSingleShardOutsideWindow(t *testing.T) {
	t.Parallel()
	e := New(5 * time.Second)
	e.Emit(ev(obs.TypeAlarm, 0, base, "tot"))
	e.Emit(ev(obs.TypeQuarantine, 0, base, "tot"))
	e.Emit(ev(obs.TypeAlarm, 1, base.Add(10*time.Second), "tot"))
	e.Emit(ev(obs.TypeQuarantine, 1, base.Add(10*time.Second), "tot"))

	incs, last := e.Incidents(0)
	if last != 2 || len(incs) != 2 {
		t.Fatalf("want two incidents, got last=%d incs=%+v", last, incs)
	}
	for _, in := range incs {
		if in.Class != ClassSingleShard || in.BlastRadius != 1 {
			t.Fatalf("classification: %+v", in)
		}
	}
	if st := e.Stats(); st.Totals[ClassSingleShard] != 2 || st.Totals[ClassCorrelated] != 0 {
		t.Fatalf("totals: %+v", e.Stats())
	}
}

// A member shard keeps folding events in regardless of the window:
// a persistent attack with failed recalibrations is ONE incident.
func TestMemberFoldsOutsideWindow(t *testing.T) {
	t.Parallel()
	e := New(5 * time.Second)
	e.Emit(ev(obs.TypeAlarm, 0, base, "low-entropy"))
	e.Emit(ev(obs.TypeQuarantine, 0, base, "low-entropy"))
	// A minute later — far outside the window — the recalibration gate
	// fails and the shard re-quarantines. Same incident.
	e.Emit(ev(obs.TypeRecalibrate, 0, base.Add(60*time.Second), ""))
	e.Emit(ev(obs.TypeStartupFail, 0, base.Add(61*time.Second), ""))
	e.Emit(ev(obs.TypeQuarantine, 0, base.Add(61*time.Second), "startup"))
	incs, last := e.Incidents(0)
	if last != 1 || len(incs) != 1 || incs[0].Shards[0].Alarms != 4 {
		t.Fatalf("persistent attack split: last=%d incs=%+v", last, incs)
	}
	// Eventually healing resolves it as one long single-shard incident.
	e.Emit(ev(obs.TypeHeal, 0, base.Add(120*time.Second), ""))
	incs, _ = e.Incidents(0)
	if !incs[0].Resolved || incs[0].MTTRSeconds != 120 {
		t.Fatalf("resolution: %+v", incs[0])
	}
}

// A flapping shard yields one incident per quarantine/heal cycle, each
// with its own MTTR — resolved incidents never accept new events.
func TestFlapOneIncidentPerCycle(t *testing.T) {
	t.Parallel()
	e := New(time.Hour) // window far wider than the flap spacing
	for i := 0; i < 3; i++ {
		quarCycle(e, 0, base.Add(time.Duration(i)*10*time.Second), 2*time.Second)
	}
	incs, last := e.Incidents(0)
	if last != 3 || len(incs) != 3 {
		t.Fatalf("want 3 incidents, got last=%d n=%d", last, len(incs))
	}
	for _, in := range incs {
		if !in.Resolved || in.Class != ClassSingleShard || in.MTTRSeconds != 2 {
			t.Fatalf("cycle incident: %+v", in)
		}
	}
	st := e.Stats()
	if s := st.MTTR[ClassSingleShard]; s == nil || s.Count() != 3 {
		t.Fatalf("MTTR records: %+v", st.MTTR)
	}
}

// An injection marker preceding the first alarm stamps the shard's
// detection time and the incident MTTD.
func TestMarkerDetection(t *testing.T) {
	t.Parallel()
	e := New(5 * time.Second)
	e.Emit(ev(obs.TypeInjectionMarker, 0, base, ""))
	e.Emit(ev(obs.TypeAlarm, 0, base.Add(1500*time.Millisecond), "injected"))
	e.Emit(ev(obs.TypeQuarantine, 0, base.Add(1500*time.Millisecond), "injected"))
	incs, _ := e.Incidents(0)
	tl := incs[0].Shards[0]
	if tl.Marker.IsZero() || tl.DetectSeconds != 1.5 || incs[0].MTTDSeconds != 1.5 {
		t.Fatalf("detection: %+v", incs[0])
	}
	e.Emit(ev(obs.TypeHeal, 0, base.Add(4*time.Second), ""))
	st := e.Stats()
	if s := st.MTTD[ClassSingleShard]; s == nil || s.Count() != 1 {
		t.Fatalf("MTTD histogram: %+v", st.MTTD)
	}
}

// The /incidents cursor: resolved incidents page out once, open ones
// reappear until resolution.
func TestIncidentsCursor(t *testing.T) {
	t.Parallel()
	e := New(time.Second)
	quarCycle(e, 0, base, time.Second) // incident 1, resolved
	_, cursor := e.Incidents(0)
	if cursor != 1 {
		t.Fatalf("cursor %d, want 1", cursor)
	}
	// incident 2 opens (and stays open), a minute later.
	e.Emit(ev(obs.TypeAlarm, 1, base.Add(time.Minute), "tot"))
	e.Emit(ev(obs.TypeQuarantine, 1, base.Add(time.Minute), "tot"))
	incs, last := e.Incidents(cursor)
	if last != 2 || len(incs) != 1 || incs[0].ID != 2 || incs[0].Resolved {
		t.Fatalf("paged read: last=%d incs=%+v", last, incs)
	}
	// The open incident reappears on the advanced cursor.
	incs, _ = e.Incidents(last)
	if len(incs) != 1 || incs[0].ID != 2 {
		t.Fatalf("open incident paged out: %+v", incs)
	}
	// Irrelevant event types and unscoped shards are ignored.
	e.Emit(obs.Event{Type: obs.TypeSeedDraw, Shard: 0, At: base})
	e.Emit(obs.Event{Type: obs.TypeAlarm, Shard: -1, At: base})
	if _, last := e.Incidents(0); last != 2 {
		t.Fatalf("ignored events created incidents: last=%d", last)
	}
}

// TestDetectionLatency: an injection marker pairs with the shard's
// first quarantine, classed by quarantine reason; markers on other
// shards stay pending.
func TestDetectionLatency(t *testing.T) {
	t.Parallel()
	e := New(DefaultWindow)
	t0 := base
	e.Emit(obs.Event{Type: obs.TypeInjectionMarker, Shard: 0, Lane: obs.Any, At: t0})
	e.Emit(obs.Event{Type: obs.TypeInjectionMarker, Shard: 1, Lane: obs.Any, At: t0})
	// Quarantine on shard 0 only, 250ms later.
	e.Emit(obs.Event{Type: obs.TypeQuarantine, Shard: 0, Lane: obs.Any, Reason: "injected", At: t0.Add(250 * time.Millisecond)})

	lats := e.Stats().Detection
	snap, ok := lats["injected"]
	if !ok {
		t.Fatalf("no latency class recorded: %v", lats)
	}
	if snap.Count() != 1 {
		t.Fatalf("count = %d, want 1", snap.Count())
	}
	if p := snap.Quantile(0.5); p < 200*time.Millisecond || p > 400*time.Millisecond {
		t.Errorf("p50 latency %v, want ~250ms", p)
	}
	// Shard 1's marker is still pending: a later unrelated quarantine
	// on shard 0 must not consume it.
	e.Emit(obs.Event{Type: obs.TypeQuarantine, Shard: 0, Lane: obs.Any, Reason: "tot", At: t0.Add(time.Second)})
	if _, ok := e.Stats().Detection["tot"]; ok {
		t.Error("unpaired quarantine recorded a latency")
	}
	// And shard 1's quarantine closes its own pair.
	e.Emit(obs.Event{Type: obs.TypeQuarantine, Shard: 1, Lane: obs.Any, Reason: "thermal-high", At: t0.Add(2 * time.Second)})
	if snap := e.Stats().Detection["thermal-high"]; snap == nil || snap.Count() != 1 {
		t.Errorf("shard 1 pair not recorded: %v", e.Stats().Detection)
	}
}

// Writer-storm stress behind a journal fan-out: concurrent emitters
// and readers, then conservation checks — every opened incident is
// accounted for as either open or resolved, and class totals sum to
// the ID counter. Run with -race.
func TestEngineStress(t *testing.T) {
	t.Parallel()
	eng := New(time.Hour)
	j := obs.NewJournal(256)
	sink := obs.Multi(j, eng)

	const writers, perWriter = 8, 400
	types := []obs.Type{
		obs.TypeAlarm, obs.TypeQuarantine, obs.TypeRecalibrate,
		obs.TypeHeal, obs.TypeInjectionMarker, obs.TypeSeedDraw,
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				sink.Emit(obs.Event{
					Type:  types[(w+i)%len(types)],
					Shard: (w * 3) % 7,
					At:    base.Add(time.Duration(i) * time.Millisecond),
				})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			incs, _ := e2read(eng)
			for _, in := range incs {
				if in.BlastRadius != len(in.Shards) {
					panic("blast radius out of sync")
				}
			}
			eng.Stats()
		}
	}()
	wg.Wait()
	<-done

	incs, last := eng.Incidents(0)
	st := eng.Stats()
	if st.Totals[ClassSingleShard]+st.Totals[ClassCorrelated] != last {
		t.Fatalf("class totals %v do not sum to lastID %d", st.Totals, last)
	}
	if st.BlastCount+uint64(st.Open) != last {
		t.Fatalf("resolved %d + open %d != opened %d", st.BlastCount, st.Open, last)
	}
	for _, in := range incs {
		if in.ID == 0 || in.ID > last || in.BlastRadius != len(in.Shards) {
			t.Fatalf("torn incident: %+v", in)
		}
	}
}

func e2read(e *Engine) ([]Incident, uint64) { return e.Incidents(0) }
