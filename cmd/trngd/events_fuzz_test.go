package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/incident"
)

// FuzzEventsQuery drives GET /events and GET /incidents with arbitrary
// query strings against a wrapped journal and an engine holding both
// resolved and open incidents. Every query must answer 200 or 400, and
// a 200 page must honour the cursor contract: only events past
// ?since=, oldest first, matching the shard/lane/type filters, at most
// ?limit= of them, none beyond last_seq, and nothing reported dropped
// for a cursor at or past last_seq. The checked-in corpus under
// testdata/fuzz holds the maximum-uint64 cursor, where since+1 wraps
// to 0.
func FuzzEventsQuery(f *testing.F) {
	j := obs.NewJournal(8)
	eng := incident.New(time.Second)
	sink := obs.Multi(j, eng)
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	emit := func(typ obs.Type, shard, lane int, dt time.Duration) {
		sink.Emit(obs.Event{Type: typ, Shard: shard, Lane: lane, At: t0.Add(dt), Reason: "tot"})
	}
	for i := 0; i < 12; i++ {
		emit(obs.TypeSeedDraw, i%3, i%2, time.Duration(i)*time.Millisecond)
	}
	// Shard 0: one resolved incident, then a second left open.
	emit(obs.TypeInjectionMarker, 0, obs.Any, time.Second)
	emit(obs.TypeAlarm, 0, obs.Any, 2*time.Second)
	emit(obs.TypeQuarantine, 0, obs.Any, 2*time.Second)
	emit(obs.TypeHeal, 0, obs.Any, 3*time.Second)
	emit(obs.TypeAlarm, 0, obs.Any, 10*time.Second)
	emit(obs.TypeQuarantine, 0, obs.Any, 10*time.Second)
	emit(obs.TypeDRBGReseed, obs.Any, 1, 11*time.Second)
	emit(obs.TypeRequestShed, obs.Any, obs.Any, 12*time.Second)
	s := &server{cfg: serverConfig{journal: j, incidents: eng}}

	for _, q := range []string{
		"",
		"since=0",
		"since=3&shard=0&lane=0&type=seed-draw&limit=2",
		"since=20",
		"type=quarantine&shard=0",
		"lane=1&limit=1",
		"since=-1",
		"limit=0",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		get := func(path string) (*httptest.ResponseRecorder, url.Values) {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			if path == "/events" {
				s.handleEvents(rec, req)
			} else {
				s.handleIncidents(rec, req)
			}
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Fatalf("%s?%s: status %d", path, raw, rec.Code)
			}
			return rec, req.URL.Query()
		}
		// filter reads an integer filter the handler accepted.
		filter := func(v string) (int, bool) {
			n, err := strconv.Atoi(v)
			return n, err == nil
		}

		rec, vals := get("/events")
		if rec.Code == http.StatusOK {
			var page obs.Page
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("/events?%s: %v", raw, err)
			}
			since, _ := strconv.ParseUint(vals.Get("since"), 10, 64)
			if since >= page.LastSeq && page.Dropped != 0 {
				t.Fatalf("/events?%s: cursor %d at or past last_seq %d dropped %d", raw, since, page.LastSeq, page.Dropped)
			}
			if limit, ok := filter(vals.Get("limit")); ok && len(page.Events) > limit {
				t.Fatalf("/events?%s: %d events over limit %d", raw, len(page.Events), limit)
			}
			shard, byShard := filter(vals.Get("shard"))
			lane, byLane := filter(vals.Get("lane"))
			typ := vals.Get("type")
			prev := since
			for _, e := range page.Events {
				if e.Seq <= prev || e.Seq > page.LastSeq {
					t.Fatalf("/events?%s: seq %d after %d (since %d, last_seq %d)", raw, e.Seq, prev, since, page.LastSeq)
				}
				prev = e.Seq
				if (byShard && e.Shard != shard) || (byLane && e.Lane != lane) || (typ != "" && string(e.Type) != typ) {
					t.Fatalf("/events?%s: filter leaked %+v", raw, e)
				}
			}
		}

		rec, vals = get("/incidents")
		if rec.Code == http.StatusOK {
			var page incidentsResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
				t.Fatalf("/incidents?%s: %v", raw, err)
			}
			since, _ := strconv.ParseUint(vals.Get("since"), 10, 64)
			var prev uint64
			for _, in := range page.Incidents {
				if in.ID <= prev || in.ID > page.LastID || (in.Resolved && in.ID <= since) {
					t.Fatalf("/incidents?%s: incident %d (resolved %v) after %d, since %d, last_id %d",
						raw, in.ID, in.Resolved, prev, since, page.LastID)
				}
				prev = in.ID
			}
		}
	})
}
