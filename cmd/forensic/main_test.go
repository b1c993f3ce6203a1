package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/incident"
)

var base = time.Date(2026, 8, 8, 9, 0, 0, 0, time.UTC)

// supplyRippleDump is a synthetic journal dump of a two-shard
// correlated attack: markers, alarms and quarantines on shards 0 and 1
// within two seconds, then both recalibrate and heal.
func supplyRippleDump() []obs.Event {
	mk := func(seq uint64, typ obs.Type, shard int, dt time.Duration, reason string) obs.Event {
		return obs.Event{Seq: seq, At: base.Add(dt), Type: typ, Shard: shard, Lane: -1, Reason: reason}
	}
	return []obs.Event{
		mk(1, obs.TypeStartupPass, 0, 0, ""),
		mk(2, obs.TypeStartupPass, 1, 0, ""),
		mk(3, obs.TypeInjectionMarker, 0, 10*time.Second, ""),
		mk(4, obs.TypeInjectionMarker, 1, 10*time.Second, ""),
		mk(5, obs.TypeAlarm, 0, 11*time.Second, "low-entropy"),
		mk(6, obs.TypeQuarantine, 0, 11*time.Second, "low-entropy"),
		mk(7, obs.TypeAlarm, 1, 12*time.Second, "tot"),
		mk(8, obs.TypeQuarantine, 1, 12*time.Second, "tot"),
		mk(9, obs.TypeRecalibrate, 0, 20*time.Second, ""),
		mk(10, obs.TypeHeal, 0, 21*time.Second, ""),
		mk(11, obs.TypeRecalibrate, 1, 22*time.Second, ""),
		mk(12, obs.TypeHeal, 1, 23*time.Second, ""),
	}
}

func TestLoadEventsShapes(t *testing.T) {
	t.Parallel()
	evs := supplyRippleDump()
	// The /events page shape.
	page, _ := json.Marshal(obs.Page{LastSeq: 12, Events: evs})
	got, err := loadEvents(bytes.NewReader(page))
	if err != nil || len(got) != len(evs) {
		t.Fatalf("page shape: %d events, err %v", len(got), err)
	}
	// A bare array.
	arr, _ := json.Marshal(evs)
	got, err = loadEvents(bytes.NewReader(arr))
	if err != nil || len(got) != len(evs) {
		t.Fatalf("array shape: %d events, err %v", len(got), err)
	}
	if got[4].Type != obs.TypeAlarm || got[4].Reason != "low-entropy" {
		t.Fatalf("event roundtrip: %+v", got[4])
	}
	if _, err := loadEvents(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// An untimed event would replay at the wall clock of the replay.
	if _, err := loadEvents(strings.NewReader(`[{"type":"alarm","shard":0}]`)); err == nil {
		t.Fatal("untimed event accepted")
	}
}

// TestReplayReconstructsCorrelatedIncident: the synthetic supply-ripple
// dump folds into ONE correlated incident with blast radius 2, full
// timelines and MTTD/MTTR — and the replay is deterministic even when
// the dump arrives out of order.
func TestReplayReconstructsCorrelatedIncident(t *testing.T) {
	t.Parallel()
	evs := supplyRippleDump()
	// Shuffle: replay must sort by sequence number first.
	shuffled := append([]obs.Event(nil), evs...)
	shuffled[0], shuffled[7] = shuffled[7], shuffled[0]
	shuffled[2], shuffled[10] = shuffled[10], shuffled[2]

	rep := buildReport(shuffled, 5*time.Second)
	if len(rep.Incidents) != 1 || rep.Open != 0 {
		t.Fatalf("report: %+v", rep)
	}
	in := rep.Incidents[0]
	if in.Class != incident.ClassCorrelated || in.BlastRadius != 2 || !in.Resolved {
		t.Fatalf("incident: %+v", in)
	}
	if in.MTTDSeconds != 1 || in.MTTRSeconds != 12 {
		t.Fatalf("mttd/mttr: %+v", in)
	}
	if rep.ByClass[incident.ClassCorrelated] != 1 || rep.ByClass[incident.ClassSingleShard] != 0 {
		t.Fatalf("by_class: %+v", rep.ByClass)
	}
	for _, tl := range in.Shards {
		if tl.Marker.IsZero() || tl.FirstAlarm.IsZero() || tl.Quarantine.IsZero() ||
			tl.Recalibrate.IsZero() || tl.Heal.IsZero() || !tl.Healed {
			t.Fatalf("timeline: %+v", tl)
		}
	}
	// A narrow window splits the same dump into two single-shard
	// incidents: the clustering hypothesis knob.
	rep = buildReport(evs, 500*time.Millisecond)
	if len(rep.Incidents) != 2 || rep.ByClass[incident.ClassSingleShard] != 2 {
		t.Fatalf("narrow window: %+v", rep.ByClass)
	}
}

func TestFetchEventsPagesCursor(t *testing.T) {
	t.Parallel()
	evs := supplyRippleDump()
	// Serve the dump two events per page to exercise the cursor loop.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/events" {
			http.NotFound(w, r)
			return
		}
		var since uint64
		fmt.Sscanf(r.URL.Query().Get("since"), "%d", &since)
		var page obs.Page
		for _, e := range evs {
			if e.Seq > since && len(page.Events) < 2 {
				page.Events = append(page.Events, e)
			}
		}
		if n := len(page.Events); n > 0 {
			page.LastSeq = page.Events[n-1].Seq
		} else {
			page.LastSeq = since
		}
		json.NewEncoder(w).Encode(page)
	}))
	defer ts.Close()
	got, err := fetchEvents(ts.URL)
	if err != nil || len(got) != len(evs) {
		t.Fatalf("fetched %d events, err %v", len(got), err)
	}
	rep := buildReport(got, 5*time.Second)
	if len(rep.Incidents) != 1 || rep.Incidents[0].Class != incident.ClassCorrelated {
		t.Fatalf("live replay: %+v", rep.Incidents)
	}
}

func TestRenderHuman(t *testing.T) {
	t.Parallel()
	rep := buildReport(supplyRippleDump(), 5*time.Second)
	var buf bytes.Buffer
	renderHuman(&buf, rep)
	out := buf.String()
	for _, want := range []string{
		"1 incident(s), 0 open",
		"incident #1  correlated  blast=2",
		"resolved (mttr 12.000s)",
		"detected 1.000s after injection",
		"shard 0:",
		"shard 1:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("human report missing %q:\n%s", want, out)
		}
	}
}
