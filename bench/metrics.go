package main

import (
	"fmt"
	"math"
	"time"
)

// metric is one printed measurement; note goes into the human line
// only.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// div is a/b, 0 when b is 0.
func div[T int64 | uint64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// finite maps NaN (an empty histogram) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// tailNote states a percentile's sample count and how many samples lie
// beyond it.
func tailNote(n uint64, q float64) string {
	beyond := uint64(float64(n) * (1 - q))
	note := fmt.Sprintf("n=%d, %d beyond", n, beyond)
	if beyond < 10 {
		note += " (fewer than 10: too few samples for this percentile)"
	}
	return note
}

// e2eMetrics are the end-to-end metrics of a run against the daemon,
// in BENCHMARK.json order.
func e2eMetrics(r *e2eResult) []metric {
	n := uint64(len(r.rep.Latency))
	return []metric{
		{"setup_s", median(r.setups).Seconds(), "s", fmt.Sprintf("median of %d boots", len(r.setups))},
		{"latency_p95_ms", ms(r.rep.Latency.Quantile(0.95)), "ms", tailNote(n, 0.95) + fmt.Sprintf(", p50 %.3f ms", ms(r.rep.Latency.Quantile(0.5)))},
		{"cpu_cores", div(r.cpuSec, r.wallSec), "cores", "trngd CPU time over the windows"},
		{"rss_mb", median(r.peaksMB), "MB", fmt.Sprintf("median trngd peak RSS of %d boots", len(r.peaksMB))},
	}
}

// rawBitsPerSec is the daemon's raw-bit rate over the windows, all
// shards, from /healthz.
func rawBitsPerSec(r *e2eResult) float64 { return div(float64(r.rawBits), r.wallSec) }

// layerMetrics are the per-layer metrics of a traced run: r is the
// untraced window against the daemon, t the traced in-process window.
func layerMetrics(r *e2eResult, t *traced) []metric {
	d := t.delta
	win := t.window.Seconds()
	physNs := div(d.physBusyNs, d.physBits)
	streamMean := div(d.streamSumNs, d.streamN)
	tracedRate := div(float64(d.rawBits), win)
	untraced := rawBitsPerSec(r)
	var streamP50 float64
	if t.streamCost != nil {
		streamP50 = float64(t.streamCost.Quantile(0.5))
	}
	mode := fmt.Sprintf("mode=%q", r.w.mode)
	phase := func(p string) float64 {
		return r.delta.histMean("trngd_request_phase_duration_seconds", fmt.Sprintf("%s,phase=%q", mode, p)) * 1e6
	}
	serverQ := func(q float64) float64 {
		return finite(bucketQuantile(q, r.delta.buckets("trngd_request_duration_seconds", mode))) * 1e3
	}
	var lane, ring [2]float64 // p50, p95 in µs
	genN := uint64(len(t.gen))
	qs := [2]float64{us(t.gen.Quantile(0.5)), us(t.gen.Quantile(0.95))}
	var laneNsPerByte float64
	if r.w.mode == "drbg" {
		lane = qs
		laneNsPerByte = div(float64(sum(t.gen)), float64(t.genBytes))
	} else {
		ring = qs
	}
	return []metric{
		{"physics.bits", float64(d.physBits), "count", "NextBit calls, all shards"},
		{"physics.ns_per_bit", physNs, "ns", ""},
		{"physics.busy_share", div(float64(d.physBusyNs), win*1e9*shards), "ratio", "NextBit time over shards x window"},
		{"shard.raw_bits_per_s", untraced, "1/s", "untraced, from /healthz"},
		{"shard.residual_ns_per_bit", div(float64(shards)*win*1e9, float64(d.rawBits)) - physNs - streamMean, "ns", "shards x wall / raw bits - physics - stream"},
		{"shard.quarantines", float64(r.quar), "count", ""},
		{"shard.buffered_bytes", float64(t.buffered), "B", "ring bytes at the window's end"},
		{"stream.ns_per_bit_p50", streamP50, "ns", "since boot"},
		{"stream.ns_per_bit_mean", streamMean, "ns", ""},
		{"assess.runs", float64(d.assessRuns), "count", ""},
		{"setup.startup_s", t.startup.Seconds(), "s", "entropyd.New"},
		{"setup.first_assess_s", t.firstAssess.Seconds(), "s", "until every shard has an assessment"},
		{"lane.p50_us", lane[0], "us", fmt.Sprintf("DRBGPool.Generate calls, n=%d", genN)},
		{"lane.p95_us", lane[1], "us", tailNote(genN, 0.95)},
		{"lane.ns_per_byte", laneNsPerByte, "ns", ""},
		{"ring.p50_us", ring[0], "us", fmt.Sprintf("Pool.ReadBuffered calls, n=%d", genN)},
		{"ring.p95_us", ring[1], "us", tailNote(genN, 0.95)},
		{"http.queue_wait_mean_us", phase("queue-wait"), "us", ""},
		{"http.lane_generate_mean_us", phase("lane-generate"), "us", ""},
		{"http.response_write_mean_us", phase("response-write"), "us", ""},
		{"http.server_p95_ms", serverQ(0.95), "ms", "interpolated in trngd's le-buckets"},
		{"http.client_gap_p50_ms", ms(r.rep.Latency.Quantile(0.5)) - serverQ(0.5), "ms", "client p50 - server p50"},
		{"http.rejected", r.delta["trngd_requests_rejected_total"], "count", ""},
		{"http.starved", r.delta["trngd_requests_starved_total"], "count", ""},
		{"runtime.sched_wait_p50_us", d.sched.quantile(0.5) * 1e6, "us", "bucket upper edge"},
		{"runtime.sched_wait_p99_us", d.sched.quantile(0.99) * 1e6, "us", "bucket upper edge"},
		{"journal.emits", float64(d.journalN), "count", ""},
		{"journal.ns_per_emit", div(d.journalNs, d.journalN), "ns", ""},
		{"incident.emits", float64(d.incidentN), "count", ""},
		{"incident.ns_per_emit", div(d.incidentNs, d.incidentN), "ns", ""},
		{"incident.mttr_s", r.mttr, "s", "drill only"},
		{"health.recover_s", r.recover.Seconds(), "s", "drill only: POST to shard 0 seed-eligible"},
		{"gen.late_p95_ms", ms(r.rep.Late.Quantile(0.95)), "ms", ""},
		{"gen.cpu_cores", div(r.genSec, r.wallSec), "cores", "benchmark process over the untraced window"},
		{"trace.overhead_ratio", div(tracedRate, untraced), "ratio", "traced / untraced shard.raw_bits_per_s"},
	}
}

// reconcile prints the cross-checks between the client, the daemon's
// phase histograms and the traced layers. A miss is a finding, not a
// failure.
func reconcile(r *e2eResult, t *traced) []string {
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "FINDING"
	}
	name := r.w.name
	mode := fmt.Sprintf("mode=%q", r.w.mode)
	phases := 0.0
	for _, p := range []string{"queue-wait", "lane-generate", "response-write"} {
		phases += r.delta.histMean("trngd_request_phase_duration_seconds", fmt.Sprintf("%s,phase=%q", mode, p))
	}
	total := r.delta.histMean("trngd_request_duration_seconds", mode)
	lines := []string{
		fmt.Sprintf("reconcile %s phases %s: queue-wait + lane-generate + response-write means = %.1f us, server total mean %.1f us (tolerance 5%%)",
			name, verdict(math.Abs(phases-total) <= 0.05*total), phases*1e6, total*1e6),
	}
	// The server's le-buckets are a decade apart, so only the lower
	// edge of its p50 bucket bounds the server p50 from below.
	client := ms(r.rep.Latency.Quantile(0.5))
	server, floor := bucketLocate(0.5, r.delta.buckets("trngd_request_duration_seconds", mode))
	lines = append(lines, fmt.Sprintf("reconcile %s p50 %s: client %.3f ms >= server p50 bucket floor %.3f ms (interpolated server p50 %.3f ms; tolerance 0)",
		name, verdict(client >= finite(floor)*1e3), client, finite(floor)*1e3, finite(server)*1e3))
	if t == nil {
		return lines
	}
	if r.w.mode == "drbg" {
		perReq := div(float64(sum(t.gen)), float64(t.genBytes)) * float64(r.w.bytes) / 1e3
		gen := r.delta.histMean("trngd_request_phase_duration_seconds", mode+`,phase="lane-generate"`) * 1e6
		lines = append(lines, fmt.Sprintf("reconcile %s lane %s: traced lane.ns_per_byte x %d B = %.1f us <= http.lane_generate_mean_us %.1f us (tolerance 0)",
			name, verdict(perReq <= gen), r.w.bytes, perReq, gen))
	}
	tracedRate := div(float64(t.delta.rawBits), t.window.Seconds())
	lines = append(lines, fmt.Sprintf("reconcile %s tracing overhead: shard.raw_bits_per_s traced %.0f / untraced %.0f = %.3f",
		name, tracedRate, rawBitsPerSec(r), div(tracedRate, rawBitsPerSec(r))))
	return lines
}
