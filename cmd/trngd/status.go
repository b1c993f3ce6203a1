package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/entropyd"
	"repro/internal/obs"
	"repro/internal/obs/incident"
)

// healthzResponse is the /healthz payload. Each ShardStatus carries
// the shard's latest assessed min-entropy, assessment age and epoch —
// the inputs that gate DRBG reseeds — next to its health state; DRBG
// is present in DRBG mode with the expansion-layer lane states.
type healthzResponse struct {
	Status    string                 `json:"status"`
	Mode      string                 `json:"mode"`
	Healthy   int                    `json:"healthy"`
	Shards    []entropyd.ShardStatus `json:"shards"`
	DRBG      *entropyd.DRBGStats    `json:"drbg,omitempty"`
	Incidents *incidentSummary       `json:"incidents,omitempty"`
}

// incidentSummary is the /healthz open-incident summary line: how many
// incidents are open right now, how many of those are correlated
// (fleet-level), and how many incidents the engine has seen in total.
type incidentSummary struct {
	Open       int    `json:"open"`
	Correlated int    `json:"correlated"`
	Total      uint64 `json:"total"`
}

// handleHealthz is GET /healthz.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	resp := healthzResponse{Mode: s.mode(), Healthy: st.Healthy, Shards: st.Shards}
	if s.drbg != nil {
		d := s.drbg.Stats()
		resp.DRBG = &d
	}
	if eng := s.cfg.incidents; eng != nil {
		ist := eng.Stats()
		resp.Incidents = &incidentSummary{
			Open:       ist.Open,
			Correlated: ist.OpenByClass[incident.ClassCorrelated],
			Total:      ist.Totals[incident.ClassSingleShard] + ist.Totals[incident.ClassCorrelated],
		}
	}
	code := http.StatusOK
	switch {
	case st.Healthy == len(st.Shards):
		resp.Status = "ok"
	case st.Healthy > 0:
		resp.Status = "degraded"
	default:
		resp.Status = "starved"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// assessResponse is the GET /assess payload: one entry per shard,
// null until that shard's first assessment completes.
type assessResponse struct {
	Shards []*entropyd.Assessment `json:"shards"`
}

// handleAssess is GET /assess[?shard=I][&live=1]: the latest per-shard
// SP 800-90B assessment reports — the periodic batch run by default,
// or the live sliding-window streaming report with ?live=1.
func (s *server) handleAssess(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	live := r.URL.Query().Get("live") == "1"
	report := func(i int) *entropyd.Assessment {
		if live {
			return s.pool.Shard(i).LiveAssessment()
		}
		return s.pool.Shard(i).LastAssessment()
	}
	if q := r.URL.Query().Get("shard"); q != "" {
		i, err := strconv.Atoi(q)
		if err != nil || i < 0 || i >= s.pool.NumShards() {
			http.Error(w, "shard out of range", http.StatusBadRequest)
			return
		}
		a := report(i)
		if a == nil {
			if live {
				http.Error(w, "no live report yet (tracker off or window not full)", http.StatusNotFound)
			} else {
				http.Error(w, "no assessment completed yet", http.StatusNotFound)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(a)
		return
	}
	resp := assessResponse{Shards: make([]*entropyd.Assessment, s.pool.NumShards())}
	for i := range resp.Shards {
		resp.Shards[i] = report(i)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleEvents is GET /events[?since=SEQ&shard=I&lane=I&type=T&limit=N]:
// the flight-recorder journal as one obs.Page, oldest matching event
// first. last_seq is the reader's next ?since= cursor even when no
// event matched; dropped is the history the ring overwrote before this
// reader got to it. 404 when the journal is disabled (-events 0).
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.journal == nil {
		http.Error(w, "event journal disabled (-events 0)", http.StatusNotFound)
		return
	}
	q := obs.NewQuery()
	values := r.URL.Query()
	if v := values.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
			return
		}
		q.Since = n
	}
	if v := values.Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "shard must be a non-negative integer", http.StatusBadRequest)
			return
		}
		q.Shard = n
	}
	if v := values.Get("lane"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "lane must be a non-negative integer", http.StatusBadRequest)
			return
		}
		q.Lane = n
	}
	if v := values.Get("type"); v != "" {
		q.Type = obs.Type(v)
	}
	if v := values.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
			return
		}
		q.Max = n
	}
	page := s.cfg.journal.Read(q)
	if page.Dropped > 0 {
		s.dropped.Add(page.Dropped)
	}
	if page.Events == nil {
		page.Events = []obs.Event{} // an empty page is "events": [], not null
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(page)
}

// incidentsResponse is the GET /incidents payload. LastID is the
// reader's next ?since= cursor; Open counts the unresolved incidents
// in the page (open incidents are returned whatever the cursor).
type incidentsResponse struct {
	LastID    uint64              `json:"last_id"`
	WindowSec float64             `json:"window_seconds"`
	Open      int                 `json:"open"`
	Incidents []incident.Incident `json:"incidents"`
}

// handleIncidents is GET /incidents[?since=ID]: the fleet incident
// view from the correlation engine — every open incident plus the
// retained resolved incidents with ID > since, oldest first. 404 when
// the engine is disabled (-incident-window 0 or -events 0).
func (s *server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	eng := s.cfg.incidents
	if eng == nil {
		http.Error(w, "incident engine disabled (-incident-window 0 or -events 0)", http.StatusNotFound)
		return
	}
	var since uint64
	if v := r.URL.Query().Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "since must be a non-negative integer", http.StatusBadRequest)
			return
		}
		since = n
	}
	incs, last := eng.Incidents(since)
	if incs == nil {
		incs = []incident.Incident{}
	}
	open := 0
	for i := range incs {
		if !incs[i].Resolved {
			open++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(incidentsResponse{
		LastID:    last,
		WindowSec: eng.Window().Seconds(),
		Open:      open,
		Incidents: incs,
	})
}

// handleQuarantine is POST /quarantine?shard=I (admin only).
func (s *server) handleQuarantine(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	i, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		http.Error(w, "shard must be an integer", http.StatusBadRequest)
		return
	}
	if err := s.pool.InjectAlarm(i); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	fmt.Fprintf(w, "alarm injected into shard %d\n", i)
}
