package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/entropyd"
	"repro/internal/obs"
	"repro/internal/obs/incident"
)

var updateGoldens = flag.Bool("update", false, "rewrite the /metrics exposition goldens in testdata")

// scrape GETs one /metrics exposition.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// pull issues one /random request and discards the outcome: traffic
// that keeps the producers moving, whether or not it is served.
func pull(base string, n int) int {
	resp, err := http.Get(fmt.Sprintf("%s/random?bytes=%d", base, n))
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// drilledRaw boots a two-shard raw-mode daemon with the journal, the
// incident engine and streaming surveillance on, drills both shards,
// and drives traffic until both drills are measured as detection
// latencies, every shard is healthy again with a batch and a live
// report, and the incident has resolved. The pool is then stopped, so
// every surface holds still for the caller.
func drilledRaw(t *testing.T, seed uint64) (*entropyd.Pool, *httptest.Server) {
	t.Helper()
	cfg := streamConfig(2, seed)
	j := obs.NewJournal(1 << 12)
	eng := incident.New(30 * time.Second)
	sink := obs.Multi(j, eng)
	cfg.Sink = sink
	pool, h := startServedWith(t, cfg, serverConfig{
		queue: 16, maxBytes: 1 << 16, wait: 10 * time.Second, admin: true,
		journal: j, sink: sink, incidents: eng,
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	drill(t, ts.URL, 0)
	drill(t, ts.URL, 1)
	settled := func() bool {
		ist := eng.Stats()
		if d := ist.Detection["injected"]; d == nil || d.Count() < 2 || ist.Open != 0 {
			return false
		}
		st := pool.Stats()
		for _, sh := range st.Shards {
			if sh.State != "healthy" || sh.Quarantines == 0 || sh.AssessRuns == 0 || sh.LiveAgeSeconds < 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(60 * time.Second)
	for !settled() {
		if time.Now().After(deadline) {
			t.Fatalf("drill never settled: %+v %+v", pool.Stats(), eng.Stats())
		}
		pull(ts.URL, 2048)
		time.Sleep(5 * time.Millisecond)
	}
	pool.Stop()
	return pool, ts
}

// expositionShape reduces a /metrics body to what must not drift:
// HELP and TYPE lines verbatim, every sample line cut to name{labels},
// and the toolchain-dependent build identity masked.
func expositionShape(body string) string {
	goVersion, revision := buildIdentity()
	mask := strings.NewReplacer(
		"go_version="+strconv.Quote(goVersion), `go_version="GO"`,
		"revision="+strconv.Quote(revision), `revision="REV"`)
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = mask.Replace(line[:strings.LastIndexByte(line, ' ')])
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsExposition pins the whole /metrics surface — family
// order, HELP and TYPE text, and the full series set — in raw mode
// with every optional family present and in DRBG mode, against
// testdata/metrics_{raw,drbg}.golden (go test -run
// TestMetricsExposition -update rewrites them).
func TestMetricsExposition(t *testing.T) {
	t.Parallel()
	check := func(t *testing.T, name, body string) {
		if errs := obs.LintProm(body); len(errs) > 0 {
			t.Fatalf("%s exposition fails lint: %v", name, errs)
		}
		got := expositionShape(body)
		path := filepath.Join("testdata", "metrics_"+name+".golden")
		if *updateGoldens {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Fatalf("%s exposition drifted from %s:\n%s", name, path, got)
		}
	}
	t.Run("raw", func(t *testing.T) {
		t.Parallel()
		_, ts := drilledRaw(t, 41)
		check(t, "raw", scrape(t, ts.URL))
	})
	t.Run("drbg", func(t *testing.T) {
		t.Parallel()
		pool, dp, h := startServedDRBG(t, assessConfig(2, 42), entropyd.DRBGConfig{BlockBytes: 1024, ReseedInterval: 4})
		ts := httptest.NewServer(h)
		defer ts.Close()
		ready := func() bool {
			for _, l := range dp.Stats().Lanes {
				if !l.Instantiated {
					return false
				}
			}
			st := pool.Stats()
			for _, sh := range st.Shards {
				if sh.State != "healthy" || sh.AssessRuns == 0 {
					return false
				}
			}
			return true
		}
		deadline := time.Now().Add(30 * time.Second)
		for pull(ts.URL, 2048) != http.StatusOK || !ready() {
			if time.Now().After(deadline) {
				t.Fatalf("drbg mode never served from every lane: %+v", dp.Stats())
			}
			time.Sleep(20 * time.Millisecond)
		}
		pool.Stop()
		check(t, "drbg", scrape(t, ts.URL))
	})
}

// sampleValue returns the value of one exposition series, written as
// name{labels}.
func sampleValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("series %s missing", series)
	return 0
}

// TestCrossSurfaceConsistency: after a two-shard drill, /metrics,
// /healthz and /events tell the same story — per-shard quarantine
// counts agree across all three, the incident totals agree between
// /metrics and /healthz, and each shard's /healthz state is the one
// its last lifecycle event on /events left it in.
func TestCrossSurfaceConsistency(t *testing.T) {
	t.Parallel()
	_, ts := drilledRaw(t, 43)
	body := scrape(t, ts.URL)
	var hz healthzResponse
	if code := getJSON(t, ts.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("/healthz: status %d", code)
	}
	for _, sh := range hz.Shards {
		metric := sampleValue(t, body, fmt.Sprintf("trngd_shard_quarantines_total{shard=%q}", strconv.Itoa(sh.Index)))
		var q obs.Page
		getJSON(t, fmt.Sprintf("%s/events?type=quarantine&shard=%d", ts.URL, sh.Index), &q)
		if q.Dropped != 0 {
			t.Fatalf("shard %d: journal dropped %d events", sh.Index, q.Dropped)
		}
		if metric != float64(len(q.Events)) || metric != float64(sh.Quarantines) {
			t.Fatalf("shard %d quarantines: metrics %v, events %d, healthz %d",
				sh.Index, metric, len(q.Events), sh.Quarantines)
		}
		var all obs.Page
		getJSON(t, fmt.Sprintf("%s/events?shard=%d", ts.URL, sh.Index), &all)
		state := ""
		for _, e := range all.Events {
			switch e.Type {
			case obs.TypeStartupPass, obs.TypeHeal:
				state = "healthy"
			case obs.TypeQuarantine:
				state = "quarantined"
			}
		}
		if state != sh.State {
			t.Fatalf("shard %d: healthz state %q, last lifecycle event says %q", sh.Index, sh.State, state)
		}
	}
	total := 0.0
	for _, c := range incident.Classes {
		total += sampleValue(t, body, fmt.Sprintf("trngd_incidents_total{class=%q}", c))
	}
	if hz.Incidents == nil || total != float64(hz.Incidents.Total) {
		t.Fatalf("incidents: metrics total %v, healthz %+v", total, hz.Incidents)
	}
}
