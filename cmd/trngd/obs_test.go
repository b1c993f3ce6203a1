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

	"repro/internal/entropyd"
	"repro/internal/obs"
	"repro/internal/obs/incident"
)

// startObserved builds a serving pool wired to a journal and the
// incident correlation engine, plus a handler with the journal, admin
// drills and (optionally) pprof enabled — the full observability
// surface under test.
func startObserved(t *testing.T, cfg entropyd.Config, pprofOn bool) (*obs.Journal, *incident.Engine, http.Handler) {
	t.Helper()
	j := obs.NewJournal(1 << 12)
	eng := incident.New(30 * time.Second)
	sink := obs.Multi(j, eng)
	cfg.Sink = sink
	_, h := startServedWith(t, cfg, serverConfig{
		queue:     16,
		maxBytes:  1 << 16,
		wait:      10 * time.Second,
		admin:     true,
		pprof:     pprofOn,
		journal:   j,
		sink:      sink,
		incidents: eng,
	})
	return j, eng, h
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestEventsEndpoint drives the flight recorder over HTTP: startup
// events are retrievable, the /quarantine drill produces a correlated
// injection-marker → quarantine pair via the ?since= cursor, filters
// and paging behave, and the measured detection latency surfaces on
// /metrics.
func TestEventsEndpoint(t *testing.T) {
	t.Parallel()
	j, eng, h := startObserved(t, testConfig(2, 21), false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Startup already journaled: one startup-pass per shard.
	var er obs.Page
	if code := getJSON(t, ts.URL+"/events?type=startup-pass", &er); code != http.StatusOK {
		t.Fatalf("/events: status %d", code)
	}
	if len(er.Events) != 2 || er.LastSeq == 0 {
		t.Fatalf("startup events: %+v", er)
	}
	for i, e := range er.Events[1:] {
		if e.Seq <= er.Events[i].Seq {
			t.Fatalf("events out of order: %+v", er.Events)
		}
	}

	// Cursor contract: ?since=last_seq returns an empty page (not null)
	// and still advances the baseline cursor.
	cursor := er.LastSeq
	var empty obs.Page
	getJSON(t, fmt.Sprintf("%s/events?since=%d", ts.URL, j.LastSeq()), &empty)
	if empty.Events == nil || len(empty.Events) != 0 {
		t.Fatalf("empty page: %+v", empty)
	}

	// Drill: the injected marker and the resulting quarantine must both
	// land after the cursor, on the same shard, marker first.
	resp, err := http.Post(ts.URL+"/quarantine?shard=1", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drill: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	var marker, quarantine *obs.Event
	for quarantine == nil {
		if time.Now().After(deadline) {
			t.Fatal("no quarantine event after drill")
		}
		// Keep traffic flowing so the serving producer trips the alarm.
		if resp, err := http.Get(ts.URL + "/random?bytes=256"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		var page obs.Page
		getJSON(t, fmt.Sprintf("%s/events?since=%d&shard=1", ts.URL, cursor), &page)
		for i := range page.Events {
			e := page.Events[i]
			switch e.Type {
			case obs.TypeInjectionMarker:
				marker = &page.Events[i]
			case obs.TypeQuarantine:
				quarantine = &page.Events[i]
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if marker == nil {
		t.Fatal("no injection-marker event after drill")
	}
	if marker.Seq >= quarantine.Seq {
		t.Fatalf("marker seq %d not before quarantine seq %d", marker.Seq, quarantine.Seq)
	}
	if marker.Shard != 1 || quarantine.Shard != 1 {
		t.Fatalf("pair on wrong shard: marker %d quarantine %d", marker.Shard, quarantine.Shard)
	}
	if quarantine.Reason != "injected" {
		t.Fatalf("quarantine reason %q", quarantine.Reason)
	}

	// The pair became a measured detection latency.
	lats := eng.Stats().Detection
	if lats["injected"] == nil || lats["injected"].Count() != 1 {
		t.Fatalf("detection latencies: %+v", lats)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`trngd_shard_detection_latency_seconds_count{class="injected"} 1`,
		`trngd_shard_detection_latency_seconds_bucket{class="injected",le="+Inf"} 1`,
		"trngd_journal_events_total",
		"trngd_journal_capacity_events 4096",
	} {
		if !strings.Contains(string(mb), want) {
			t.Fatalf("metrics missing %q in:\n%s", want, mb)
		}
	}

	// Filters and paging.
	var limited obs.Page
	getJSON(t, ts.URL+"/events?limit=1", &limited)
	if len(limited.Events) != 1 {
		t.Fatalf("limit=1 returned %d events", len(limited.Events))
	}
	var typed obs.Page
	getJSON(t, ts.URL+"/events?type=quarantine&shard=1", &typed)
	for _, e := range typed.Events {
		if e.Type != obs.TypeQuarantine || e.Shard != 1 {
			t.Fatalf("filter leak: %+v", e)
		}
	}
	for _, bad := range []string{"?since=x", "?shard=-2", "?lane=x", "?limit=0"} {
		resp, err := http.Get(ts.URL + "/events" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("/events%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestEventsDisabled: without a journal the endpoint 404s (the feature
// is off, not an empty list).
func TestEventsDisabled(t *testing.T) {
	t.Parallel()
	_, h := startServed(t, testConfig(1, 22), 4, false)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/events without journal: status %d, want 404", resp.StatusCode)
	}
}

// TestPhaseHistograms: a served request lands exactly once in each of
// the three phase series, and only queue-entered requests are phased
// (a shed request advances none).
func TestPhaseHistograms(t *testing.T) {
	t.Parallel()
	_, _, h := startObserved(t, testConfig(2, 23), false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/random?bytes=128")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(mb)
	for _, phase := range []string{"queue-wait", "lane-generate", "response-write"} {
		want := fmt.Sprintf(`trngd_request_phase_duration_seconds_count{mode="raw",phase=%q} 3`, phase)
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestBuildInfoAndRuntimeMetrics: the build-identity gauge and the
// process runtime gauges are exported.
func TestBuildInfoAndRuntimeMetrics(t *testing.T) {
	t.Parallel()
	_, h := startServed(t, testConfig(1, 24), 4, false)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(mb)
	for _, want := range []string{
		`trngd_build_info{go_version="`,
		`revision="`,
		"trngd_goroutines ",
		"trngd_gc_pause_seconds_total ",
		"trngd_gc_runs_total ",
		"trngd_heap_alloc_bytes ",
		"trngd_heap_sys_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestMetricsLint holds the live /metrics output — raw mode with the
// full observability surface exercised, and drbg mode — to the
// Prometheus text-format spec via internal/obs.LintProm.
func TestMetricsLint(t *testing.T) {
	t.Parallel()
	_, _, h := startObserved(t, testConfig(2, 25), false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Exercise the surface: traffic, a shed-free drill, phase series.
	for i := 0; i < 2; i++ {
		if resp, err := http.Get(ts.URL + "/random?bytes=64"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if resp, err := http.Post(ts.URL+"/quarantine?shard=0", "text/plain", nil); err == nil {
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if errs := obs.LintProm(string(mb)); len(errs) > 0 {
		t.Fatalf("raw-mode /metrics fails lint: %v\n%s", errs, mb)
	}
}

// TestMetricsLintDRBG lints the drbg-mode families too (lane gauges,
// drbg counters).
func TestMetricsLintDRBG(t *testing.T) {
	t.Parallel()
	_, _, h := startServedDRBG(t, assessConfig(2, 26), entropyd.DRBGConfig{BlockBytes: 1024, ReseedInterval: 4})
	ts := httptest.NewServer(h)
	defer ts.Close()

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/random?bytes=2048")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drbg mode never served")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if errs := obs.LintProm(string(mb)); len(errs) > 0 {
		t.Fatalf("drbg-mode /metrics fails lint: %v\n%s", errs, mb)
	}
}

// TestPprofGated: the profiling mux is opt-in.
func TestPprofGated(t *testing.T) {
	t.Parallel()
	_, _, h := startObserved(t, testConfig(1, 27), true)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled: status %d", resp.StatusCode)
	}

	_, h2 := startServed(t, testConfig(1, 28), 4, false)
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	resp, err = http.Get(ts2.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", resp.StatusCode)
	}
}
