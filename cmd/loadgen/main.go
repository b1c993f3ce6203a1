// Command loadgen drives HTTP load against a running trngd and
// reports client-observed latency quantiles (p50/p99/p999), goodput
// and unavailability — the external half of the serving-performance
// measurement whose internal half is trngd's own
// trngd_request_duration_seconds histogram. Both sides record into
// the same internal/loadstat histogram type, so the daemon's view and
// the client's view are directly comparable.
//
// # Load models
//
// -model closed runs -c workers in a tight request loop: each worker
// issues the next request the moment the previous response is fully
// read. Throughput self-limits to the server's capacity — the classic
// closed-loop benchmark, right for finding the capacity ceiling and
// the concurrency knee.
//
// -model open issues requests at a fixed arrival rate (-rate per
// second) regardless of completions, the way independent clients
// arrive in production. Arrival i fires at start + i/rate; arrivals
// that would exceed -max-inflight are counted as shed instead of
// silently queueing (queueing would turn the open loop back into a
// closed one and hide overload — coordinated omission by another
// name). An open run with shed = 0 and a stable p99 demonstrates the
// server sustains that rate; growing shed or tail is overload.
//
// # Sweeps and saturation
//
// -sweep-c (closed) or -sweep-rate (open) runs the same measurement
// at each offered-load step, and -sweep-bytes crosses request sizes.
// With a sweep of two or more steps, loadgen locates the goodput
// knee: the last step whose goodput improved by at least 10% over its
// predecessor. Past the knee the server is saturated — more offered
// load buys latency, not bytes. A step whose unavailability rate
// (non-200s, transport errors and shed arrivals over all arrivals)
// exceeds 1% is flagged saturated regardless of goodput: the server
// is already failing requests.
//
// # Output
//
// The default output is one human-readable line per step plus a knee
// verdict. -json emits a machine-readable document in the spirit of
// cmd/benchjson (goodput as bytes_per_sec per step) so load runs can
// ride the same perf-trajectory artifacts as the Go benchmarks; -out
// writes it to a file for committing next to BENCH_*.json.
//
// -events correlates the run with the server's own flight recorder:
// loadgen snapshots the target's /events cursor before the first step
// and pages the journal afterwards, reporting how many request-shed
// and starvation-abort events the server logged during the run next
// to the client-observed 503 counts. The two views should agree; a
// non-zero dropped tally means the journal overwrote events mid-run
// (raise the daemon's -events capacity) and a remaining gap means
// another client shared the window. When the target also runs the
// incident correlation engine, the report gains an incidents block:
// how many incidents opened during the run, by class (single-shard vs
// correlated), and how many are still open — a load run that trips
// correlated quarantines is a finding worth surfacing.
//
// Usage:
//
//	loadgen [-url http://127.0.0.1:8080] [-model closed|open]
//	        [-c N | -rate R] [-max-inflight M] [-bytes N] [-pr]
//	        [-duration D] [-timeout D] [-ready-wait D]
//	        [-sweep-c 1,2,4,8] [-sweep-rate 100,200,400]
//	        [-sweep-bytes 4096,65536] [-events] [-json] [-out FILE]
//
// Example — is the daemon good for 200 req/s of 4 KiB blocks?
//
//	loadgen -url http://127.0.0.1:8080 -model open -rate 200 \
//	        -bytes 4096 -duration 30s
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadstat"
	"repro/internal/obs"
)

// counters is the shared tally of one measurement run. All fields are
// atomics: closed-loop workers and open-loop request goroutines bump
// them concurrently.
type counters struct {
	requests  atomic.Uint64 // requests issued (arrivals that got a slot)
	ok        atomic.Uint64 // complete 200 responses of the full size
	http503   atomic.Uint64 // 503 responses (queue-full or starved server)
	otherErr  atomic.Uint64 // other non-200s and transport errors
	truncated atomic.Uint64 // 200 responses whose body came up short
	shed      atomic.Uint64 // open-loop arrivals dropped at max-inflight
	bytesOK   atomic.Uint64 // body bytes of complete 200 responses
}

// Result is one measurement step, shaped for the JSON document. The
// goodput field is named bytes_per_sec to line up with the
// cmd/benchjson trajectory results it sits next to.
type Result struct {
	Name        string  `json:"name"`
	Model       string  `json:"model"`
	Concurrency int     `json:"concurrency,omitempty"`
	RatePerSec  float64 `json:"rate_per_sec,omitempty"`
	Bytes       int     `json:"bytes"`
	ElapsedSec  float64 `json:"elapsed_seconds"`
	Requests    uint64  `json:"requests"`
	OK          uint64  `json:"ok"`
	HTTP503     uint64  `json:"http_503"`
	Errors      uint64  `json:"errors"`
	// Truncated counts 200 responses that died mid-body — the one
	// outcome a graceful shutdown must never produce (a drained request
	// is either served in full or never accepted).
	Truncated   uint64           `json:"truncated"`
	Shed        uint64           `json:"shed"`
	BytesPerSec float64          `json:"bytes_per_sec"`
	OKPerSec    float64          `json:"ok_per_sec"`
	Latency     loadstat.Summary `json:"latency"`
}

// unavailRate is the fraction of offered load that did not get a full
// answer: non-200s, transport failures and shed arrivals, over every
// arrival (issued + shed).
func (r Result) unavailRate() float64 {
	offered := r.Requests + r.Shed
	if offered == 0 {
		return 0
	}
	return float64(r.HTTP503+r.Errors+r.Truncated+r.Shed) / float64(offered)
}

// doRequest issues one GET, reads the whole body, and classifies the
// outcome. Latency is first-byte-to-last-byte inclusive — the time a
// consumer actually waits for its entropy.
func doRequest(client *http.Client, url string, want int, cnt *counters, h *loadstat.Histogram) {
	cnt.requests.Add(1)
	t0 := time.Now()
	resp, err := client.Get(url)
	if err != nil {
		cnt.otherErr.Add(1)
		return
	}
	n, rerr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	h.Record(time.Since(t0))
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		cnt.http503.Add(1)
	case resp.StatusCode != http.StatusOK:
		cnt.otherErr.Add(1)
	case rerr != nil || n != int64(want):
		cnt.truncated.Add(1)
	default:
		cnt.ok.Add(1)
		cnt.bytesOK.Add(uint64(n))
	}
}

// runClosed is the closed-loop measurement: c workers, each issuing
// its next request as soon as the previous response is drained.
func runClosed(client *http.Client, url string, want, c int, d time.Duration) (*counters, *loadstat.Histogram, time.Duration) {
	cnt := &counters{}
	h := loadstat.New()
	deadline := time.Now().Add(d)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				doRequest(client, url, want, cnt, h)
			}
		}()
	}
	wg.Wait()
	return cnt, h, time.Since(start)
}

// runOpen is the open-loop measurement: arrival i fires at
// start + i/rate whether or not earlier requests finished. Arrivals
// beyond maxInflight are shed (counted, not queued — queueing would
// reintroduce the coordination the open loop exists to avoid).
func runOpen(client *http.Client, url string, want int, rate float64, maxInflight int, d time.Duration) (*counters, *loadstat.Histogram, time.Duration) {
	cnt := &counters{}
	h := loadstat.New()
	interval := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, maxInflight)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; ; i++ {
		at := start.Add(time.Duration(i) * interval)
		if at.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(at))
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				doRequest(client, url, want, cnt, h)
			}()
		default:
			cnt.shed.Add(1)
		}
	}
	wg.Wait()
	return cnt, h, time.Since(start)
}

// buildResult folds one run's tallies into a Result.
func buildResult(name, model string, c int, rate float64, want int, cnt *counters, h *loadstat.Histogram, elapsed time.Duration) Result {
	sec := elapsed.Seconds()
	return Result{
		Name:        name,
		Model:       model,
		Concurrency: c,
		RatePerSec:  rate,
		Bytes:       want,
		ElapsedSec:  sec,
		Requests:    cnt.requests.Load(),
		OK:          cnt.ok.Load(),
		HTTP503:     cnt.http503.Load(),
		Errors:      cnt.otherErr.Load(),
		Truncated:   cnt.truncated.Load(),
		Shed:        cnt.shed.Load(),
		BytesPerSec: float64(cnt.bytesOK.Load()) / sec,
		OKPerSec:    float64(cnt.ok.Load()) / sec,
		Latency:     h.Snapshot().Summarize(),
	}
}

// Saturation is the sweep verdict: where the goodput knee sits and
// whether the final step is past it.
type Saturation struct {
	// KneeName is the last sweep step whose goodput still improved by
	// at least kneeGain over its predecessor.
	KneeName        string  `json:"knee_name"`
	KneeBytesPerSec float64 `json:"knee_bytes_per_sec"`
	// Saturated reports whether the sweep drove the server past the
	// knee: goodput stopped growing after the knee step, or some step
	// failed more than satUnavail of its offered load.
	Saturated bool   `json:"saturated"`
	Reason    string `json:"reason"`
}

const (
	// kneeGain is the minimum goodput improvement (ratio over the
	// previous step) for a sweep step to count as "still scaling".
	kneeGain = 1.10
	// satUnavail is the unavailability rate past which a step is
	// saturated outright, wherever the knee sits.
	satUnavail = 0.01
)

// findKnee locates the goodput knee of an ordered sweep (offered load
// increasing). With fewer than two steps there is no knee to find and
// the verdict is nil.
func findKnee(results []Result) *Saturation {
	if len(results) < 2 {
		return nil
	}
	knee := 0
	for i := 1; i < len(results); i++ {
		prev := results[i-1].BytesPerSec
		if prev <= 0 || results[i].BytesPerSec >= prev*kneeGain {
			knee = i
		}
	}
	s := &Saturation{
		KneeName:        results[knee].Name,
		KneeBytesPerSec: results[knee].BytesPerSec,
	}
	for _, r := range results {
		if r.unavailRate() > satUnavail {
			s.Saturated = true
			s.Reason = fmt.Sprintf("%s failed %.1f%% of offered load", r.Name, 100*r.unavailRate())
			return s
		}
	}
	if knee < len(results)-1 {
		s.Saturated = true
		s.Reason = fmt.Sprintf("goodput flat after %s (gain < %d%% per step)", s.KneeName, int((kneeGain-1)*100))
	} else {
		s.Reason = "goodput still scaling at the last step"
	}
	return s
}

// Doc is the -json document.
type Doc struct {
	Target     string          `json:"target"`
	Model      string          `json:"model"`
	GoVersion  string          `json:"go_version"`
	Results    []Result        `json:"results"`
	Saturation *Saturation     `json:"saturation,omitempty"`
	Events     *EventReport    `json:"events,omitempty"`
	Incidents  *IncidentReport `json:"incidents,omitempty"`
}

// EventReport is the server-side view of the run from the target's
// /events journal (-events): the cursor window, the daemon events
// counted inside it, and how much journal history the ring overwrote
// before loadgen's pages caught up.
type EventReport struct {
	SinceSeq         uint64 `json:"since_seq"`
	LastSeq          uint64 `json:"last_seq"`
	Shed             uint64 `json:"shed"`
	StarvationAborts uint64 `json:"starvation_aborts"`
	Dropped          uint64 `json:"dropped"`
}

// IncidentReport tallies the incidents the target's correlation
// engine opened during the run (-events, when the target serves
// /incidents): the cursor window, the count by class, and how many
// were still open when the run ended.
type IncidentReport struct {
	SinceID uint64            `json:"since_id"`
	LastID  uint64            `json:"last_id"`
	Total   int               `json:"total"`
	ByClass map[string]uint64 `json:"by_class"`
	Open    int               `json:"open"`
}

// incidentsPage mirrors trngd's GET /incidents response shape.
type incidentsPage struct {
	LastID    uint64 `json:"last_id"`
	Incidents []struct {
		ID       uint64 `json:"id"`
		Class    string `json:"class"`
		Resolved bool   `json:"resolved"`
	} `json:"incidents"`
}

// eventsCursor snapshots the target journal's current last_seq.
// ok=false (without error) means the target serves no journal — the
// daemon runs with -events 0 or predates the endpoint.
func eventsCursor(client *http.Client, base string) (uint64, bool, error) {
	resp, err := client.Get(base + "/events?limit=1")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return 0, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("/events: status %d", resp.StatusCode)
	}
	var page obs.Page
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return 0, false, err
	}
	return page.LastSeq, true, nil
}

// countEvents pages the journal forward from since and tallies the
// request-shed and starvation-abort daemon events in the window.
func countEvents(client *http.Client, base string, since uint64) (*EventReport, error) {
	rep := &EventReport{SinceSeq: since, LastSeq: since}
	cursor := since
	for {
		resp, err := client.Get(fmt.Sprintf("%s/events?since=%d", base, cursor))
		if err != nil {
			return nil, err
		}
		var page obs.Page
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		rep.LastSeq = page.LastSeq
		rep.Dropped += page.Dropped
		for _, e := range page.Events {
			switch e.Type {
			case obs.TypeRequestShed:
				rep.Shed++
			case obs.TypeStarveAbort:
				rep.StarvationAborts++
			}
			if e.Seq > cursor {
				cursor = e.Seq
			}
		}
		if len(page.Events) == 0 || cursor >= page.LastSeq {
			return rep, nil
		}
	}
}

// incidentsCursor snapshots the target's /incidents cursor. ok=false
// (without error) means the target's incident engine is off.
func incidentsCursor(client *http.Client, base string) (uint64, bool, error) {
	resp, err := client.Get(base + "/incidents")
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		io.Copy(io.Discard, resp.Body)
		return 0, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("/incidents: status %d", resp.StatusCode)
	}
	var page incidentsPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return 0, false, err
	}
	return page.LastID, true, nil
}

// countIncidents reads the incidents the engine opened after since and
// tallies them by class. Open incidents are always present in the
// page whatever the cursor, so pre-run open incidents are filtered by
// ID.
func countIncidents(client *http.Client, base string, since uint64) (*IncidentReport, error) {
	resp, err := client.Get(fmt.Sprintf("%s/incidents?since=%d", base, since))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/incidents: status %d", resp.StatusCode)
	}
	var page incidentsPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil, err
	}
	rep := &IncidentReport{SinceID: since, LastID: page.LastID, ByClass: map[string]uint64{}}
	for _, in := range page.Incidents {
		if in.ID <= since {
			continue
		}
		rep.Total++
		rep.ByClass[in.Class]++
		if !in.Resolved {
			rep.Open++
		}
	}
	return rep, nil
}

// parseInts parses a comma-separated integer list ("1,2,4").
func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad list element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseFloats parses a comma-separated rate list ("100,200,400").
func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad list element %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// randomURL renders the request URL once per step (the hot loop
// reuses the string).
func randomURL(base string, nbytes int, pr bool) string {
	u := fmt.Sprintf("%s/random?bytes=%d", base, nbytes)
	if pr {
		u += "&pr=1"
	}
	return u
}

// waitReady polls the target until /random answers 200 (drbg mode
// gates output on the first per-shard assessment, which can take a
// while after boot) or the budget runs out.
func waitReady(client *http.Client, base string, budget time.Duration) error {
	if budget <= 0 {
		return nil
	}
	deadline := time.Now().Add(budget)
	for {
		resp, err := client.Get(base + "/random?bytes=16")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("target not ready within %v", budget)
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// newClient builds the load-generation client: connection reuse up to
// the full concurrency so steady state measures the server, not TCP
// handshakes.
func newClient(maxConns int, timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        maxConns,
			MaxIdleConnsPerHost: maxConns,
		},
	}
}

func printResult(w io.Writer, r Result) {
	fmt.Fprintf(w, "%s: %d req (%d ok, %d 503, %d err, %d shed)  %.2f MB/s goodput  p50 %s p99 %s p999 %s max %s\n",
		r.Name, r.Requests, r.OK, r.HTTP503, r.Errors, r.Shed,
		r.BytesPerSec/1e6,
		time.Duration(r.Latency.P50Sec*1e9).Round(time.Microsecond),
		time.Duration(r.Latency.P99Sec*1e9).Round(time.Microsecond),
		time.Duration(r.Latency.P999Sec*1e9).Round(time.Microsecond),
		time.Duration(r.Latency.MaxSec*1e9).Round(time.Microsecond))
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		target      = flag.String("url", "http://127.0.0.1:8080", "trngd base URL")
		model       = flag.String("model", "closed", "load model: closed (c workers) or open (fixed arrival rate)")
		c           = flag.Int("c", 4, "closed-loop concurrency")
		rate        = flag.Float64("rate", 100, "open-loop arrival rate (requests/second)")
		maxInflight = flag.Int("max-inflight", 256, "open-loop in-flight cap; excess arrivals are shed, not queued")
		nbytes      = flag.Int("bytes", 4096, "request size (/random?bytes=N)")
		pr          = flag.Bool("pr", false, "request prediction resistance (?pr=1, drbg mode only)")
		duration    = flag.Duration("duration", 10*time.Second, "measurement duration per sweep step")
		timeout     = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		readyWait   = flag.Duration("ready-wait", time.Minute, "wait for the target to serve before measuring (0 = don't)")
		sweepC      = flag.String("sweep-c", "", "comma-separated closed-loop concurrency sweep (overrides -c)")
		sweepRate   = flag.String("sweep-rate", "", "comma-separated open-loop rate sweep (overrides -rate)")
		sweepBytes  = flag.String("sweep-bytes", "", "comma-separated request-size sweep (overrides -bytes)")
		events      = flag.Bool("events", false, "snapshot the target's /events journal around the run and report shed/starvation counts")
		jsonOut     = flag.Bool("json", false, "emit the machine-readable JSON document")
		outFile     = flag.String("out", "", "write the JSON document to this file (implies -json shape)")
	)
	flag.Parse()

	cs, err := parseInts(*sweepC)
	if err != nil {
		log.Fatalf("-sweep-c: %v", err)
	}
	rates, err := parseFloats(*sweepRate)
	if err != nil {
		log.Fatalf("-sweep-rate: %v", err)
	}
	sizes, err := parseInts(*sweepBytes)
	if err != nil {
		log.Fatalf("-sweep-bytes: %v", err)
	}
	if len(cs) == 0 {
		cs = []int{*c}
	}
	if len(rates) == 0 {
		rates = []float64{*rate}
	}
	if len(sizes) == 0 {
		sizes = []int{*nbytes}
	}
	if *model != "closed" && *model != "open" {
		log.Fatalf("unknown model %q (closed or open)", *model)
	}

	maxConns := *maxInflight
	for _, v := range cs {
		if v > maxConns {
			maxConns = v
		}
	}
	client := newClient(maxConns, *timeout)
	if err := waitReady(client, *target, *readyWait); err != nil {
		log.Fatal(err)
	}

	var cursor, incCursor uint64
	journaled, incidents := false, false
	if *events {
		var err error
		if cursor, journaled, err = eventsCursor(client, *target); err != nil {
			log.Fatalf("-events: %v", err)
		}
		if !journaled {
			log.Print("-events: target serves no /events journal; skipping event report")
		}
		if incCursor, incidents, err = incidentsCursor(client, *target); err != nil {
			log.Fatalf("-events: %v", err)
		}
	}

	var results []Result
	for _, size := range sizes {
		url := randomURL(*target, size, *pr)
		switch *model {
		case "closed":
			for _, conc := range cs {
				name := fmt.Sprintf("loadgen/closed/c=%d/bytes=%d", conc, size)
				cnt, h, elapsed := runClosed(client, url, size, conc, *duration)
				r := buildResult(name, "closed", conc, 0, size, cnt, h, elapsed)
				results = append(results, r)
				printResult(os.Stderr, r)
			}
		case "open":
			for _, rt := range rates {
				name := fmt.Sprintf("loadgen/open/rate=%g/bytes=%d", rt, size)
				cnt, h, elapsed := runOpen(client, url, size, rt, *maxInflight, *duration)
				r := buildResult(name, "open", 0, rt, size, cnt, h, elapsed)
				results = append(results, r)
				printResult(os.Stderr, r)
			}
		}
	}
	var evReport *EventReport
	if journaled {
		var err error
		if evReport, err = countEvents(client, *target, cursor); err != nil {
			log.Fatalf("-events: %v", err)
		}
		fmt.Fprintf(os.Stderr, "server events: %d shed, %d starvation aborts, %d dropped (journal seq %d → %d)\n",
			evReport.Shed, evReport.StarvationAborts, evReport.Dropped, evReport.SinceSeq, evReport.LastSeq)
	}
	var incReport *IncidentReport
	if incidents {
		var err error
		if incReport, err = countIncidents(client, *target, incCursor); err != nil {
			log.Fatalf("-events: %v", err)
		}
		fmt.Fprintf(os.Stderr, "server incidents: %d during run (%d single-shard, %d correlated), %d still open\n",
			incReport.Total, incReport.ByClass["single-shard"], incReport.ByClass["correlated"], incReport.Open)
	}
	sat := findKnee(results)
	if sat != nil {
		verdict := "not saturated"
		if sat.Saturated {
			verdict = "SATURATED"
		}
		fmt.Fprintf(os.Stderr, "knee: %s at %.2f MB/s — %s (%s)\n",
			sat.KneeName, sat.KneeBytesPerSec/1e6, verdict, sat.Reason)
	}

	if *jsonOut || *outFile != "" {
		doc := Doc{
			Target:     *target,
			Model:      *model,
			GoVersion:  runtime.Version(),
			Results:    results,
			Saturation: sat,
			Events:     evReport,
			Incidents:  incReport,
		}
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		enc = append(enc, '\n')
		if *outFile != "" {
			if err := os.WriteFile(*outFile, enc, 0o644); err != nil {
				log.Fatal(err)
			}
		}
		if *jsonOut {
			os.Stdout.Write(enc)
		}
	}
}
