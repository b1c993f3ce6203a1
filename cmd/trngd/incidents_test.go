package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// drill fires the /quarantine endpoint on one shard.
func drill(t *testing.T, base string, shard int) {
	t.Helper()
	resp, err := http.Post(fmt.Sprintf("%s/quarantine?shard=%d", base, shard), "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drill shard %d: status %d", shard, resp.StatusCode)
	}
}

// TestIncidentsEndpoint drives the full incident surface over HTTP:
// back-to-back drills on two shards inside the correlation window fold
// into ONE correlated incident with blast radius 2, visible on
// /incidents, summarized on /healthz, and exported on /metrics; once
// both shards heal the incident resolves with a recorded MTTR.
func TestIncidentsEndpoint(t *testing.T) {
	t.Parallel()
	cfg := testConfig(2, 31)
	// Hold recalibration back long enough for both drills' quarantines
	// to land while the incident is still open — the production shape,
	// where a startup retest takes seconds, not the test default's 2ms.
	cfg.Health.RecalibrateBackoff = time.Second
	_, _, h := startObserved(t, cfg, false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	drill(t, ts.URL, 0)
	drill(t, ts.URL, 1)

	// Traffic keeps the producers moving so both injected alarms trip,
	// then recalibration heals the shards.
	deadline := time.Now().Add(30 * time.Second)
	var ir incidentsResponse
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no correlated incident: %+v", ir)
		}
		if resp, err := http.Get(ts.URL + "/random?bytes=256"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if code := getJSON(t, ts.URL+"/incidents", &ir); code != http.StatusOK {
			t.Fatalf("/incidents: status %d", code)
		}
		if len(ir.Incidents) == 1 && ir.Incidents[0].BlastRadius == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	in := ir.Incidents[0]
	if in.Class != "correlated" || ir.LastID != 1 {
		t.Fatalf("classification: %+v", ir)
	}
	for _, tl := range in.Shards {
		if tl.Marker.IsZero() || tl.Quarantine.IsZero() {
			t.Fatalf("timeline missing drill milestones: %+v", tl)
		}
		if tl.DetectSeconds <= 0 {
			t.Fatalf("no detection time: %+v", tl)
		}
	}

	// /healthz carries the open-incident summary. It answers 503 with
	// the same JSON body while both drilled shards are still out of
	// rotation, so decode it whatever the status.
	var hz healthzResponse
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&hz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if hz.Incidents == nil || hz.Incidents.Total != 1 {
		t.Fatalf("healthz incident summary: %+v", hz.Incidents)
	}

	// Both shards heal -> the incident resolves and records MTTR.
	for {
		if time.Now().After(deadline) {
			t.Fatal("incident never resolved")
		}
		getJSON(t, ts.URL+"/incidents", &ir)
		if len(ir.Incidents) == 1 && ir.Incidents[0].Resolved {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ir.Open != 0 || ir.Incidents[0].MTTRSeconds <= 0 {
		t.Fatalf("resolution: %+v", ir)
	}

	// A consumed cursor pages the resolved incident out.
	var paged incidentsResponse
	getJSON(t, fmt.Sprintf("%s/incidents?since=%d", ts.URL, ir.LastID), &paged)
	if len(paged.Incidents) != 0 || paged.LastID != ir.LastID {
		t.Fatalf("cursor page: %+v", paged)
	}
	resp, err = http.Get(ts.URL + "/incidents?since=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cursor: status %d, want 400", resp.StatusCode)
	}

	// The metric families: totals by class, the open gauge, the blast
	// radius of the resolved incident, and its MTTR/MTTD. Lint-clean.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(mb)
	for _, want := range []string{
		`trngd_incidents_total{class="correlated"} 1`,
		`trngd_incidents_total{class="single-shard"} 0`,
		"trngd_incidents_open 0",
		`trngd_incident_blast_radius_bucket{le="2"} 1`,
		"trngd_incident_blast_radius_sum 2",
		`trngd_incident_mttr_seconds_count{class="correlated"} 1`,
		`trngd_incident_mttd_seconds_count{class="correlated"} 1`,
		`trngd_incident_mttr_seconds_count{class="single-shard"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
	if errs := obs.LintProm(text); len(errs) > 0 {
		t.Fatalf("/metrics with incident families fails lint: %v", errs)
	}
}

// TestIncidentsDisabled: without the engine the endpoint 404s.
func TestIncidentsDisabled(t *testing.T) {
	t.Parallel()
	_, h := startServed(t, testConfig(1, 32), 4, false)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/incidents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/incidents without engine: status %d, want 404", resp.StatusCode)
	}
}

// TestEventsDroppedReported: a reader whose cursor fell behind a
// wrapped journal sees the overwrite loss as an explicit dropped count
// in the page and in trngd_journal_dropped_total.
func TestEventsDroppedReported(t *testing.T) {
	t.Parallel()
	j := obs.NewJournal(8)
	cfg := testConfig(1, 33)
	cfg.Sink = j
	_, h := startServedWith(t, cfg, serverConfig{
		queue: 4, maxBytes: 1 << 16, wait: 10 * time.Second,
		journal: j, sink: j,
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	for i := 0; i < 20; i++ {
		j.Emit(obs.Event{Type: obs.TypeSeedDraw, Shard: 0, Lane: -1})
	}
	var er obs.Page
	if code := getJSON(t, ts.URL+"/events", &er); code != http.StatusOK {
		t.Fatalf("/events: status %d", code)
	}
	if er.Dropped == 0 || er.Dropped != er.LastSeq-8 {
		t.Fatalf("dropped=%d last_seq=%d, want last_seq-8", er.Dropped, er.LastSeq)
	}
	// A caught-up cursor drops nothing.
	var live obs.Page
	getJSON(t, fmt.Sprintf("%s/events?since=%d", ts.URL, er.LastSeq-2), &live)
	if live.Dropped != 0 || len(live.Events) != 2 {
		t.Fatalf("live cursor: %+v", live)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("trngd_journal_dropped_total %d", er.Dropped)
	if !strings.Contains(string(mb), want) {
		t.Fatalf("metrics missing %q", want)
	}
}
