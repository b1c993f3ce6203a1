// Command bench is the repository's benchmark: it builds cmd/trngd,
// serves one of its workloads against fresh daemons, checks the
// served output, and prints end-to-end metrics — or, with -trace 1,
// per-layer metrics from the daemon's own surfaces and from the same
// entropyd stack composed in-process with timed seams.
//
// Run it from the repository root (bench/run.sh builds it first):
//
//	bash bench/run.sh -workload drbg-4k -seed 1 -seconds 13 -trace 0
//
// Each metric prints as one "workload metric value unit" line; the
// last line of standard output is a JSON summary. The exit code is
// non-zero when a correctness check fails or the run cannot complete.
// bench/README.md explains the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/load"
	"repro/internal/engine"
	"repro/internal/sp90b"
)

const (
	// shards matches the core count of the box the baseline ran on.
	shards = 2
	// assessBits is the first-assessment sample. trngd's default
	// (65536) puts a DRBG boot at about 16 s of calibrated physics;
	// 20480 raw bits complete with the startup test, so every boot
	// takes about 5 s and three boots per run fit the time budget.
	assessBits = 20480
	// boots is how many times a run sets the daemon up; setup_s is
	// their median and each boot serves a third of the measured time.
	boots = 3
	// warmup is the unmeasured load before each window.
	warmup = time.Second
	// drillAt is when the drill workload quarantines shard 0.
	drillAt = time.Second
	// recoverBudget bounds the wait for the drilled shard to recover.
	recoverBudget = 30 * time.Second
	// sampleBytes is the served sample the entropy check assesses
	// (64 Kibit).
	sampleBytes = 8192
)

// workload is one open-loop traffic mix against one daemon
// configuration.
type workload struct {
	name  string
	mode  string  // trngd -mode
	rate  float64 // arrivals per second
	conns int     // connections
	bytes int     // /random?bytes=
	drill bool    // POST /quarantine?shard=0 drillAt into the last window
}

// workloads are the benchmark's traffic mixes; bench/README.md gives
// the reason for each.
var workloads = []workload{
	{name: "drbg-4k", mode: "drbg", rate: 50, conns: 2, bytes: 4096},
	{name: "raw-32", mode: "raw", rate: 16, conns: 2, bytes: 32},
	{name: "drill", mode: "drbg", rate: 50, conns: 2, bytes: 4096, drill: true},
}

// bootSeed is the daemon seed of a run's i-th boot: each boot serves
// a different stream, so pooled windows and samples never repeat.
func bootSeed(seed uint64, i int) uint64 { return engine.DeriveSeed(seed, uint64(i)) }

// flags are trngd's command line for the workload.
func (w workload) flags(seed uint64) []string {
	f := []string{"-mode", w.mode, "-shards", fmt.Sprint(shards), "-seed", fmt.Sprint(seed),
		"-assess-bits", fmt.Sprint(assessBits), "-log-level", "warn"}
	if w.drill {
		f = append(f, "-admin")
	}
	return f
}

// drive runs the workload's arrivals for d. A non-nil drill runs
// drillAt into the window; drive returns after it has.
func drive(ctx context.Context, w workload, d time.Duration, fn load.Func, drill func()) load.Report {
	var wg sync.WaitGroup
	if drill != nil {
		wg.Add(1)
		t := time.NewTimer(drillAt)
		go func() {
			defer wg.Done()
			defer t.Stop()
			select {
			case <-t.C:
				drill()
			case <-ctx.Done():
			}
		}()
	}
	rep := load.Open(ctx, w.rate, w.conns, d, fn)
	wg.Wait()
	return rep
}

// httpLoad issues the workload's /random requests and checks each
// body's length.
type httpLoad struct {
	client *http.Client
	url    string
	want   int
	bad    atomic.Uint64 // 200 responses whose body was not exactly want bytes
	bufs   sync.Pool

	mu     sync.Mutex
	keep   bool   // keep served bytes for the entropy check
	sample []byte // up to sampleBytes of served bytes
}

func newHTTPLoad(base string, w workload) *httpLoad {
	h := &httpLoad{
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: w.conns, MaxIdleConnsPerHost: w.conns},
		},
		url:  fmt.Sprintf("%s/random?bytes=%d", base, w.bytes),
		want: w.bytes,
	}
	h.bufs.New = func() any { b := make([]byte, w.bytes+1); return &b }
	return h
}

func (h *httpLoad) request(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	bp := h.bufs.Get().(*[]byte)
	defer h.bufs.Put(bp)
	// One byte more than wanted: a body of exactly want bytes stops
	// short of it with ErrUnexpectedEOF.
	n, err := io.ReadFull(resp.Body, *bp)
	if n != h.want || err != io.ErrUnexpectedEOF {
		h.bad.Add(1)
		return 0, fmt.Errorf("body of %d bytes, want %d (%v)", n, h.want, err)
	}
	h.mu.Lock()
	if h.keep && len(h.sample) < sampleBytes {
		h.sample = append(h.sample, (*bp)[:min(n, sampleBytes-len(h.sample))]...)
	}
	h.mu.Unlock()
	return n, nil
}

// check is one correctness check's outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

// e2eResult is what a run measured against live daemons, pooled over
// the windows of every boot it measured.
type e2eResult struct {
	w       workload
	setups  []time.Duration
	rep     load.Report
	delta   scrape  // /metrics after minus before, summed over windows
	wallSec float64 // window time, summed over boots
	cpuSec  float64 // trngd CPU time over the windows
	genSec  float64 // benchmark process CPU time over the windows
	peaksMB []float64
	rawBits uint64 // all shards, over the windows
	quar    uint64 // shard quarantines over the windows
	sample  []byte // served bytes kept for the entropy check
	recover time.Duration
	mttr    float64
	checks  []check
	finds   []string
}

func (r *e2eResult) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *e2eResult) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// measure drives a warm-up and then one measured window against d,
// snapshotting the daemon's surfaces around the window, checks the
// window's responses and adds it to r. With drill set, shard 0 is
// quarantined drillAt into the window and measure waits for it to
// recover.
func measure(d *daemon, w workload, window time.Duration, drill bool, r *e2eResult) error {
	ctx := context.Background()
	h := newHTTPLoad(d.base, w)
	defer h.client.CloseIdleConnections()
	drive(ctx, w, warmup, h.request, nil)
	h.mu.Lock()
	h.keep = len(r.sample) < sampleBytes
	h.mu.Unlock()

	before, err := d.snapshot()
	if err != nil {
		return err
	}
	gen0, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	var recovered <-chan drillResult
	var drillFn func()
	if drill {
		drillFn = func() { recovered = d.drill(before.health.Shards[0].Epoch) }
	}
	rep := drive(ctx, w, window, h.request, drillFn)
	gen1, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	after, err := d.snapshot()
	if err != nil {
		return err
	}
	// The server counts a request on entry and its bytes after the last
	// write, so its counters can trail the client by a moment.
	wantReq := float64(rep.Arrivals - rep.NotStarted)
	delta := after.metrics.delta(before.metrics)
	for i := 0; i < 20 && (delta["trngd_requests_total"] != wantReq || delta["trngd_bytes_served_total"] != float64(rep.Bytes)); i++ {
		time.Sleep(50 * time.Millisecond)
		if after.metrics, err = d.metrics(); err != nil {
			return err
		}
		delta = after.metrics.delta(before.metrics)
	}
	r.check("body-length", h.bad.Load() == 0, "%d of %d responses had a wrong body length", h.bad.Load(), rep.Arrivals)
	r.check("server-counts",
		delta["trngd_requests_total"] == wantReq && delta["trngd_bytes_served_total"] == float64(rep.Bytes),
		"server counted %.0f requests / %.0f bytes; client started %.0f / received %d",
		delta["trngd_requests_total"], delta["trngd_bytes_served_total"], wantReq, rep.Bytes)
	if drill {
		res := <-recovered
		r.check("drill-recovers", res.err == nil, "shard 0 healthy with a fresh assessment %v after the drill (%v)", res.recover, res.err)
		r.recover = res.recover
		r.checkIncident(d, before.incidents)
	} else if n := newIncidents(before.incidents, after.incidents); len(n) > 0 {
		r.finds = append(r.finds, fmt.Sprintf("%d incident(s) opened during a window", len(n)))
	}

	r.rep = load.Merge(r.rep, rep)
	if r.delta == nil {
		r.delta = scrape{}
	}
	for k, v := range delta {
		r.delta[k] += v
	}
	r.wallSec += after.proc.at.Sub(before.proc.at).Seconds()
	r.cpuSec += (after.proc.cpu - before.proc.cpu).Seconds()
	r.genSec += (gen1.cpu - gen0.cpu).Seconds()
	r.peaksMB = append(r.peaksMB, float64(after.proc.hwmKiB)/1024)
	for i, s := range after.health.Shards {
		if i < len(before.health.Shards) {
			r.rawBits += s.RawBits - before.health.Shards[i].RawBits
			r.quar += s.Quarantines - before.health.Shards[i].Quarantines
		}
	}
	h.mu.Lock()
	r.sample = append(r.sample, h.sample[:min(len(h.sample), sampleBytes-len(r.sample))]...)
	h.mu.Unlock()
	return nil
}

// checkIncident verifies the drill opened exactly one single-shard
// incident and that it resolved.
func (r *e2eResult) checkIncident(d *daemon, before incidents) {
	var now incidents
	if err := d.getJSON("/incidents", &now); err != nil {
		r.check("drill-incident", false, "%v", err)
		return
	}
	n := newIncidents(before, now)
	ok := len(n) == 1 && n[0].Class == "single-shard" && n[0].BlastRadius == 1 && n[0].Resolved
	detail := fmt.Sprintf("%d new incidents", len(n))
	if len(n) == 1 {
		detail = fmt.Sprintf("incident %d: class %s, blast radius %d, resolved %v",
			n[0].ID, n[0].Class, n[0].BlastRadius, n[0].Resolved)
		r.mttr = n[0].MTTRSeconds
	}
	r.check("drill-incident", ok, "%s", detail)
}

// newIncidents returns the incidents in now opened after before.
func newIncidents(before, now incidents) []incidentView {
	var out []incidentView
	for _, in := range now.Incidents {
		if in.ID > before.LastID {
			out = append(out, in)
		}
	}
	return out
}

// checkEntropy completes the served sample from d if the windows
// served less than sampleBytes, and runs the SP 800-90B suite on it.
func (r *e2eResult) checkEntropy(d *daemon) error {
	deadline := time.Now().Add(30 * time.Second)
	for len(r.sample) < sampleBytes {
		n := min(256, sampleBytes-len(r.sample))
		code, body, err := d.get(fmt.Sprintf("/random?bytes=%d", n))
		if err == nil && code == http.StatusOK && len(body) == n {
			r.sample = append(r.sample, body...)
			continue
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("entropy sample: %d of %d bytes (last: status %d, %v)", len(r.sample), sampleBytes, code, err)
		}
	}
	bits := make([]byte, 0, 8*len(r.sample))
	for _, b := range r.sample {
		for i := 7; i >= 0; i-- {
			bits = append(bits, b>>uint(i)&1)
		}
	}
	rep, err := sp90b.Assess(bits)
	if err != nil {
		r.check("sp90b", false, "%v", err)
		return nil
	}
	r.check("sp90b", rep.MinEntropy >= assessMin, "served sample of %d bits assesses at %.3f bits/bit (min %.1f)",
		len(bits), rep.MinEntropy, assessMin)
	return nil
}

// drillResult is the drilled shard's recovery.
type drillResult struct {
	recover time.Duration
	err     error
}

// drill quarantines shard 0 and polls /healthz every 50 ms until the
// shard is healthy again in a later epoch with that epoch's
// assessment, the point from which it can seed lanes again.
func (d *daemon) drill(epoch0 int64) <-chan drillResult {
	ch := make(chan drillResult, 1)
	t0 := time.Now()
	if err := d.post("/quarantine?shard=0"); err != nil {
		ch <- drillResult{err: err}
		return ch
	}
	go func() {
		for {
			var h healthz
			if err := d.getJSON("/healthz", &h); err == nil && len(h.Shards) > 0 {
				s := h.Shards[0]
				if s.State == "healthy" && s.Epoch > epoch0 && s.AssessEpoch == s.Epoch {
					ch <- drillResult{recover: time.Since(t0)}
					return
				}
			}
			if time.Since(t0) > recoverBudget {
				ch <- drillResult{err: fmt.Errorf("not recovered within %v", recoverBudget)}
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	return ch
}

// repoRoot checks that the working directory is the repository root.
func repoRoot() (string, error) {
	root, err := os.Getwd()
	if err != nil {
		return "", err
	}
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil || !bytes.HasPrefix(mod, []byte("module repro\n")) {
		return "", fmt.Errorf("%s is not the repository root (no go.mod for module repro)", root)
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "trngd")); err != nil {
		return "", fmt.Errorf("%s has no cmd/trngd: %w", root, err)
	}
	return root, nil
}

// buildTrngd compiles cmd/trngd into the build directory.
func buildTrngd(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "trngd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/trngd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build cmd/trngd: %w", err)
	}
	return bin, nil
}

func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runE2E boots the daemon boots times and measures a window of
// window/boots on each boot, so set-up is timed several times and the
// pooled window averages out what differs from boot to boot. The drill
// runs in the last window.
func runE2E(root, bin string, w workload, seed uint64, window time.Duration) (*e2eResult, error) {
	r := &e2eResult{w: w}
	for i := 0; i < boots; i++ {
		d, setup, err := boot(bin, w.flags(bootSeed(seed, i)), filepath.Join(root, "bench", "out", fmt.Sprintf("trngd-%s-%d.log", w.name, i)))
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup)
		last := i == boots-1
		err = measure(d, w, window/boots, w.drill && last, r)
		if err == nil && last {
			err = r.checkEntropy(d)
		}
		d.stop()
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runTrace measures one window against the daemon for its surfaces,
// then the same window against the in-process stack with tracing on.
func runTrace(root, bin string, w workload, seed uint64, window time.Duration) (*e2eResult, *traced, error) {
	d, setup, err := boot(bin, w.flags(bootSeed(seed, 0)), filepath.Join(root, "bench", "out", fmt.Sprintf("trngd-%s-trace.log", w.name)))
	if err != nil {
		return nil, nil, err
	}
	r := &e2eResult{w: w, setups: []time.Duration{setup}}
	err = measure(d, w, window, w.drill, r)
	if err == nil {
		err = r.checkEntropy(d)
	}
	var want stackConfig
	if err == nil {
		want, err = d.config()
	}
	d.stop()
	if err != nil {
		return nil, nil, err
	}
	t, err := runTraced(w, bootSeed(seed, 0), window)
	if err != nil {
		return nil, nil, err
	}
	r.check("trace-config", t.config == want, "composed %+v, daemon %+v", t.config, want)
	r.check("trace-requests", t.rep.Failed == 0, "%d of %d traced requests failed", t.rep.Failed, t.rep.Arrivals)
	return r, t, nil
}

// summary is the JSON line that ends standard output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the metric lines, reconciliations and checks of one
// run, then its JSON summary; it returns whether the run was correct.
func report(stdout io.Writer, w workload, r *e2eResult, t *traced) bool {
	var ms []metric
	attempted, failed := r.rep.Arrivals, r.rep.Failed
	if t == nil {
		ms = e2eMetrics(r)
	} else {
		ms = layerMetrics(r, t)
		attempted += t.rep.Arrivals
		failed += t.rep.Failed
	}
	for _, m := range ms {
		line := fmt.Sprintf("%s %s %s %s", w.name, m.name, formatValue(m.value), m.unit)
		if m.note != "" {
			line += "  # " + m.note
		}
		fmt.Fprintln(stdout, line)
	}
	for _, l := range reconcile(r, t) {
		fmt.Fprintln(stdout, l)
	}
	for _, f := range r.finds {
		fmt.Fprintf(stdout, "finding %s: %s\n", w.name, f)
	}
	for _, c := range r.checks {
		verdict := "ok"
		if !c.ok {
			verdict = "FAILED"
		}
		fmt.Fprintf(stdout, "check %s %s: %s\n", c.name, verdict, c.detail)
	}
	s := summary{Correct: r.correct(), Attempted: attempted, Failed: failed, Metrics: map[string]jsonValue{}}
	for _, m := range ms {
		s.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	b, err := json.Marshal(s)
	if err != nil {
		// Only a NaN or Inf value can fail to encode; metrics guard
		// their divisions, so this is a bug.
		panic(err)
	}
	fmt.Fprintln(stdout, string(b))
	return s.Correct
}

// formatValue prints a value with all its digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

// runOne builds, runs and reports one workload.
func runOne(root, bin string, w workload, seed uint64, window time.Duration, trace bool) (bool, error) {
	if !trace {
		r, err := runE2E(root, bin, w, seed, window)
		if err != nil {
			return false, err
		}
		return report(os.Stdout, w, r, nil), nil
	}
	r, t, err := runTrace(root, bin, w, seed, window)
	if err != nil {
		return false, err
	}
	path := filepath.Join(root, "bench", "out", "trace-"+w.name+".jsonl")
	if err := writeSpans(path, t.spans); err != nil {
		return false, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%d spans written to %s (%d dropped)\n", len(t.spans), path, t.droppedSpans)
	printSelfTimes(os.Stderr, t.spans)
	return report(os.Stdout, w, r, t), nil
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "daemon seed (trngd -seed)")
	seconds := flag.Int("seconds", 13, "measured time per workload, in seconds, split over the boots")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run; 0 prints end-to-end metrics")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	var run []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			run = append(run, w)
		}
	}
	if len(run) == 0 {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fail(fmt.Errorf("unknown workload %q (%s or all)", *name, strings.Join(names, ", ")))
	}
	root, err := repoRoot()
	if err != nil {
		fail(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		fail(err)
	}
	bin, err := buildTrngd(root)
	if err != nil {
		fail(err)
	}
	allOK := true
	for _, w := range run {
		ok, err := runOne(root, bin, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		allOK = allOK && ok
	}
	if !allOK {
		os.Exit(1)
	}
}
