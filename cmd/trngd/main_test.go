package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/entropyd"
	"repro/internal/rng"
	"repro/internal/sp90b"
)

// fairSource is a cheap scripted bit source for handler tests: the
// HTTP layer is under test here, not the oscillator physics.
type fairSource struct{ r *rng.Source }

func (s *fairSource) NextBit() byte { return byte(s.r.Uint64() & 1) }

func testConfig(shards int, seed uint64) entropyd.Config {
	return entropyd.Config{
		Shards: shards,
		Seed:   seed,
		Health: entropyd.HealthConfig{
			DisableMonitor:     true,
			RecalibrateBackoff: 2 * time.Millisecond,
		},
		NewSource: func(_, _ int, seed uint64) (entropyd.RawSource, error) {
			return &fairSource{r: rng.New(seed)}, nil
		},
	}
}

// startServedWith builds a serving pool plus a handler with the given
// server configuration.
func startServedWith(t *testing.T, cfg entropyd.Config, sc serverConfig) (*entropyd.Pool, http.Handler) {
	t.Helper()
	pool, err := entropyd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := pool.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Stop(); cancel() })
	return pool, newServer(pool, nil, sc).handler()
}

// startServed builds a serving pool plus its handler.
func startServed(t *testing.T, cfg entropyd.Config, queue int, admin bool) (*entropyd.Pool, http.Handler) {
	t.Helper()
	return startServedWith(t, cfg, serverConfig{queue: queue, maxBytes: 1 << 16, wait: 10 * time.Second, admin: admin})
}

func TestRandomEndpoint(t *testing.T) {
	t.Parallel()
	_, h := startServed(t, testConfig(2, 1), 16, false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/random?bytes=100")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) != 100 {
		t.Fatalf("status %d, %d bytes", resp.StatusCode, len(body))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("content type %q", ct)
	}

	for _, bad := range []string{"/random?bytes=0", "/random?bytes=-5", "/random?bytes=x", "/random?bytes=999999999"} {
		resp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err = http.Post(ts.URL+"/random", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /random: status %d", resp.StatusCode)
	}
	// Admin endpoint absent unless enabled.
	resp, err = http.Post(ts.URL+"/quarantine?shard=0", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /quarantine: status %d", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	t.Parallel()
	_, h := startServed(t, testConfig(2, 2), 16, false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" || hz.Healthy != 2 || len(hz.Shards) != 2 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, hz)
	}

	if _, err := http.Get(ts.URL + "/random?bytes=64"); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"trngd_requests_total",
		"trngd_bytes_served_total 64",
		"trngd_throughput_bytes_per_second",
		"trngd_shards_healthy 2",
		`trngd_shard_state{shard="1"} 1`,
		"trngd_shard_quarantines_total",
		// The request-latency histogram: the one /random request above
		// must appear in the cumulative buckets, the +Inf bucket and the
		// count, all labelled with the serving mode.
		`trngd_request_duration_seconds_bucket{mode="raw",le="0.0001"}`,
		`trngd_request_duration_seconds_bucket{mode="raw",le="+Inf"} 1`,
		`trngd_request_duration_seconds_sum{mode="raw"}`,
		`trngd_request_duration_seconds_count{mode="raw"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestServedStreamMatchesFill pins the contract the daemon rides on:
// the HTTP-served byte stream equals the deterministic Fill stream of
// an identically configured pool, across request boundaries, at
// jobs=1 and jobs=N alike.
func TestServedStreamMatchesFill(t *testing.T) {
	t.Parallel()
	_, h := startServed(t, testConfig(2, 3), 16, false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	var got []byte
	for _, n := range []string{"300", "212", "512"} {
		resp, err := http.Get(ts.URL + "/random?bytes=" + n)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		got = append(got, body...)
	}

	for _, jobs := range []int{1, 0} {
		cfg := testConfig(2, 3)
		cfg.Jobs = jobs
		batch, err := entropyd.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]byte, len(got))
		if _, err := batch.Fill(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("served stream diverges from Fill stream at jobs=%d", jobs)
		}
	}
}

// TestChunkedLargeResponse: a response larger than the pooled 64 KiB
// chunk buffer streams in pieces; the reassembled body must still be
// the exact Fill stream (chunk stitching preserves byte order across
// buffer reuse) and carry the full Content-Length up front.
func TestChunkedLargeResponse(t *testing.T) {
	t.Parallel()
	pool, err := entropyd.New(testConfig(2, 11))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := pool.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Stop(); cancel() })
	h := newServer(pool, nil, serverConfig{queue: 4, maxBytes: 1 << 20, wait: 30 * time.Second}).handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	const n = 3*chunkBytes + 12345 // 4 chunks, last one partial
	resp, err := http.Get(fmt.Sprintf("%s/random?bytes=%d", ts.URL, n))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != n {
		t.Fatalf("status %d, content-length %d, want 200/%d", resp.StatusCode, resp.ContentLength, n)
	}
	if len(body) != n {
		t.Fatalf("body %d bytes, want %d", len(body), n)
	}
	twin, err := entropyd.New(testConfig(2, 11))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, n)
	if _, err := twin.Fill(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("chunked body diverges from the Fill stream")
	}
}

// TestRacedHandlers hammers /random from many goroutines; with -race
// this is the torn-read witness for the whole serving path (SPSC
// rings, rotation cursor, request accounting).
func TestRacedHandlers(t *testing.T) {
	t.Parallel()
	pool, h := startServed(t, testConfig(3, 4), 32, false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	const (
		workers  = 8
		requests = 5
		size     = 256
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers*requests)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				resp, err := http.Get(ts.URL + "/random?bytes=256")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || len(body) != size {
					errs <- io.ErrShortBuffer
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if served := pool.Stats().BytesServed; served < workers*requests*size {
		t.Fatalf("pool served %d bytes, want >= %d", served, workers*requests*size)
	}
}

// TestQuarantineDrill drives the admin endpoint: a forced alarm
// quarantines a shard mid-service, /healthz degrades, /random keeps
// answering, and the shard self-heals.
func TestQuarantineDrill(t *testing.T) {
	t.Parallel()
	pool, h := startServed(t, testConfig(3, 5), 16, true)
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/quarantine?shard=1", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quarantine: status %d", resp.StatusCode)
	}
	if resp, err := http.Post(ts.URL+"/quarantine?shard=99", "text/plain", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("out-of-range quarantine: status %d", resp.StatusCode)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	cycled := false
	for !cycled {
		resp, err := http.Get(ts.URL + "/random?bytes=512")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/random during drill: status %d", resp.StatusCode)
		}
		st := pool.Stats().Shards[1]
		cycled = st.Quarantines >= 1 && st.State == "healthy" && st.Epoch >= 1
		if time.Now().After(deadline) {
			t.Fatalf("shard 1 never cycled: %+v", st)
		}
	}
}

// assessConfig is testConfig with a tight assessment duty cycle, so a
// few KiB of served bytes complete per-shard assessments.
func assessConfig(shards int, seed uint64) entropyd.Config {
	cfg := testConfig(shards, seed)
	cfg.Health.AssessBits = sp90b.MinBits
	cfg.Health.AssessEveryBits = sp90b.MinBits
	return cfg
}

// TestAssessEndpointAndGauges drives enough traffic to complete
// assessments on every shard, then checks the /assess JSON (full and
// per-shard forms) and the Prometheus assessment gauges — with a
// concurrent hammer on /assess and /random so -race witnesses the
// report-publication path.
func TestAssessEndpointAndGauges(t *testing.T) {
	t.Parallel()
	_, h := startServed(t, assessConfig(2, 6), 16, false)
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Each shard needs sp90b.MinBits raw bits per sample; 16 KiB of
	// output is 64 Kibit per shard — several assessments each.
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				for _, path := range []string{"/random?bytes=1024", "/assess", "/metrics"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						errs <- err
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/assess")
	if err != nil {
		t.Fatal(err)
	}
	var ar assessResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ar.Shards) != 2 {
		t.Fatalf("assess reports %d shards, want 2", len(ar.Shards))
	}
	for i, a := range ar.Shards {
		if a == nil {
			t.Fatalf("shard %d: no assessment after traffic", i)
		}
		if a.Shard != i || a.Report.Bits != sp90b.MinBits {
			t.Fatalf("shard %d: metadata %+v", i, a)
		}
		if a.Report.MinEntropy <= 0 || a.Report.MinEntropy > 1 {
			t.Fatalf("shard %d: min-entropy %g outside (0, 1]", i, a.Report.MinEntropy)
		}
		if len(a.Report.Estimates) != 10 {
			t.Fatalf("shard %d: %d estimates, want 10", i, len(a.Report.Estimates))
		}
	}

	// Per-shard form plus its error paths.
	resp, err = http.Get(ts.URL + "/assess?shard=1")
	if err != nil {
		t.Fatal(err)
	}
	var one entropyd.Assessment
	if err := json.NewDecoder(resp.Body).Decode(&one); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if one.Shard != 1 {
		t.Fatalf("per-shard assess returned shard %d", one.Shard)
	}
	if resp, err = http.Get(ts.URL + "/assess?shard=99"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("out-of-range shard: status %d", resp.StatusCode)
		}
	}

	// Gauges.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`trngd_shard_assess_runs_total{shard="0"}`,
		`trngd_shard_assess_runs_total{shard="1"}`,
		"trngd_shard_assess_alarms_total",
		`trngd_shard_assess_min_entropy{shard="0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestAssessNotReady: before any assessment completes, /assess serves
// nulls and the per-shard form 404s (and the min-entropy gauge stays
// absent rather than exporting a bogus zero). The pool stays in batch
// mode: serve-mode ring prefill alone pushes enough raw bits through a
// shard to complete its first sample.
func TestAssessNotReady(t *testing.T) {
	t.Parallel()
	pool, err := entropyd.New(testConfig(1, 7)) // startup consumes 20000 raw bits < AssessBits
	if err != nil {
		t.Fatal(err)
	}
	h := newServer(pool, nil, serverConfig{queue: 4, maxBytes: 1 << 16, wait: 10 * time.Second}).handler()
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/assess")
	if err != nil {
		t.Fatal(err)
	}
	var ar assessResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ar.Shards) != 1 || ar.Shards[0] != nil {
		t.Fatalf("expected a single null report, got %+v", ar.Shards)
	}
	if resp, err = http.Get(ts.URL + "/assess?shard=0"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("per-shard assess before first run: status %d", resp.StatusCode)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "trngd_shard_assess_min_entropy{") {
		t.Fatal("min-entropy gauge exported before any assessment")
	}
}

// startServedDRBG builds a serving pool in DRBG mode plus its handler.
func startServedDRBG(t *testing.T, cfg entropyd.Config, drbgCfg entropyd.DRBGConfig) (*entropyd.Pool, *entropyd.DRBGPool, http.Handler) {
	t.Helper()
	cfg.SeedTapBytes = 1 << 13
	pool, err := entropyd.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := pool.DRBGPool(drbgCfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	if err := pool.Serve(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.Stop(); cancel() })
	return pool, dp, newServer(pool, dp, serverConfig{queue: 16, maxBytes: 1 << 16, wait: 10 * time.Second}).handler()
}

// TestDRBGMode drives the expansion-layer serving path end to end over
// HTTP: /random serves DRBG bytes once assessments complete, ?pr=1
// forces per-block reseeds, /healthz reports mode and the per-shard
// reseed-gating inputs (assessed min-entropy + assessment age), and
// /metrics exports the trngd_drbg_* counters advancing.
func TestDRBGMode(t *testing.T) {
	t.Parallel()
	_, dp, h := startServedDRBG(t, assessConfig(2, 8), entropyd.DRBGConfig{BlockBytes: 1024, ReseedInterval: 4})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Output is gated on the first per-shard assessment; the serving
	// producers complete it on their own (surveillance duty).
	deadline := time.Now().Add(30 * time.Second)
	var body []byte
	for {
		resp, err := http.Get(ts.URL + "/random?bytes=8192")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("unexpected status %d before assessment", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("/random never came up in drbg mode")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(body) != 8192 {
		t.Fatalf("got %d bytes", len(body))
	}
	if bytes.Equal(body, make([]byte, 8192)) {
		t.Fatal("all-zero DRBG output")
	}

	// Prediction resistance.
	st0 := dp.Stats()
	resp, err := http.Get(ts.URL + "/random?bytes=2048&pr=1")
	if err != nil {
		t.Fatal(err)
	}
	prBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(prBody) != 2048 {
		t.Fatalf("pr request: status %d, %d bytes", resp.StatusCode, len(prBody))
	}
	st1 := dp.Stats()
	if st1.Reseeds-st0.Reseeds < 2 {
		t.Fatalf("pr reseeds advanced %d, want >= 2 (one per block)", st1.Reseeds-st0.Reseeds)
	}
	if resp, err := http.Get(ts.URL + "/random?bytes=16&pr=bogus"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("pr=bogus: status %d", resp.StatusCode)
		}
	}

	// /healthz: mode, drbg block, and the reseed-gating inputs.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Mode != "drbg" || hz.DRBG == nil {
		t.Fatalf("healthz mode/drbg: %+v", hz)
	}
	if hz.DRBG.Generates == 0 || hz.DRBG.Reseeds == 0 {
		t.Fatalf("healthz drbg counters flat: %+v", hz.DRBG)
	}
	for i, sh := range hz.Shards {
		if sh.AssessMinEntropy <= 0 || sh.AssessMinEntropy > 1 {
			t.Fatalf("shard %d: healthz min-entropy %g", i, sh.AssessMinEntropy)
		}
		if sh.AssessAgeSeconds < 0 || sh.AssessAgeSeconds > 300 {
			t.Fatalf("shard %d: healthz assessment age %g", i, sh.AssessAgeSeconds)
		}
	}

	// /metrics: the drbg counter family.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(mb)
	for _, want := range []string{
		"trngd_drbg_generates_total",
		"trngd_drbg_reseeds_total",
		"trngd_drbg_reseed_failures_total",
		"trngd_drbg_seed_draws_total",
		`trngd_drbg_lane_reseed_counter{lane="0"}`,
		"trngd_shard_assess_age_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestRawModeRejectsPR: prediction resistance is a DRBG-mode contract.
func TestRawModeRejectsPR(t *testing.T) {
	t.Parallel()
	_, h := startServed(t, testConfig(1, 9), 4, false)
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/random?bytes=16&pr=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("raw-mode pr: status %d, want 400", resp.StatusCode)
	}
	// An explicit pr=0 is NOT a prediction-resistance request and must
	// be served.
	resp, err = http.Get(ts.URL + "/random?bytes=16&pr=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("raw-mode pr=0: status %d, want 200", resp.StatusCode)
	}
	// And /healthz reports raw mode with no drbg block.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Mode != "raw" || hz.DRBG != nil {
		t.Fatalf("raw healthz: %+v", hz)
	}
}

func TestPostChainFlag(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"none", "", "xor2", "xor4", "xor8", "vn"} {
		if _, err := postChain(name); err != nil {
			t.Fatalf("%q rejected: %v", name, err)
		}
	}
	if _, err := postChain("bogus"); err == nil {
		t.Fatal("bogus chain accepted")
	}
}

func TestDividerAutoScale(t *testing.T) {
	t.Parallel()
	// The auto-scale formula at amp=100 must give the legacy demo
	// default, grow quadratically as amp shrinks toward physics, and
	// land on the paper's honest operating regime (K ≈ 10⁵ periods
	// per bit) at the calibrated default amp=1.
	if k := autoDivider(100); k != 64 {
		t.Fatalf("amp=100: k=%d", k)
	}
	if k := autoDivider(10); k != 6400 {
		t.Fatalf("amp=10: k=%d", k)
	}
	if k := autoDivider(1); k != 640000 {
		t.Fatalf("amp=1: k=%d", k)
	}
}
