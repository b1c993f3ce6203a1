package main

import (
	"math"
	"testing"
)

// Two scrapes in trngd's rendering: a labelled request histogram, the
// phase histograms and two counters.
const scrapeBefore = `# HELP trngd_requests_total /random requests received.
# TYPE trngd_requests_total counter
trngd_requests_total 10
trngd_bytes_served_total 40960
# HELP trngd_request_duration_seconds /random service latency.
# TYPE trngd_request_duration_seconds histogram
trngd_request_duration_seconds_bucket{mode="drbg",le="0.001"} 5
trngd_request_duration_seconds_bucket{mode="drbg",le="0.01"} 8
trngd_request_duration_seconds_bucket{mode="drbg",le="0.1"} 10
trngd_request_duration_seconds_bucket{mode="drbg",le="+Inf"} 10
trngd_request_duration_seconds_sum{mode="drbg"} 0.2
trngd_request_duration_seconds_count{mode="drbg"} 10
trngd_request_phase_duration_seconds_sum{mode="drbg",phase="queue-wait"} 0.01
trngd_request_phase_duration_seconds_count{mode="drbg",phase="queue-wait"} 10
`

const scrapeAfter = `trngd_requests_total 110
trngd_bytes_served_total 450560
trngd_request_duration_seconds_bucket{mode="drbg",le="0.001"} 55
trngd_request_duration_seconds_bucket{mode="drbg",le="0.01"} 88
trngd_request_duration_seconds_bucket{mode="drbg",le="0.1"} 108
trngd_request_duration_seconds_bucket{mode="drbg",le="+Inf"} 110
trngd_request_duration_seconds_sum{mode="drbg"} 1.2
trngd_request_duration_seconds_count{mode="drbg"} 110
trngd_request_phase_duration_seconds_sum{mode="drbg",phase="queue-wait"} 0.06
trngd_request_phase_duration_seconds_count{mode="drbg",phase="queue-wait"} 110
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(scrapeBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(scrapeAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if d["trngd_requests_total"] != 100 || d["trngd_bytes_served_total"] != 409600 {
		t.Fatalf("counter deltas %v, %v", d["trngd_requests_total"], d["trngd_bytes_served_total"])
	}
	if got := d.histMean("trngd_request_duration_seconds", `mode="drbg"`); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("request mean = %v, want 0.01", got)
	}
	if got := d.histMean("trngd_request_phase_duration_seconds", `mode="drbg",phase="queue-wait"`); math.Abs(got-0.0005) > 1e-12 {
		t.Errorf("queue-wait mean = %v, want 0.0005", got)
	}

	b := d.buckets("trngd_request_duration_seconds", `mode="drbg"`)
	want := []bucket{{0.001, 50}, {0.01, 80}, {0.1, 98}, {math.Inf(1), 100}}
	if len(b) != len(want) {
		t.Fatalf("buckets = %v, want %v", b, want)
	}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", b, want)
		}
	}
	for _, c := range []struct {
		q, v, floor float64
	}{
		{0.25, 0.0005, 0},             // halfway into the first bucket, from 0
		{0.5, 0.001, 0},               // the first bucket's top edge
		{0.65, 0.0055, 0.001},         // halfway into the second
		{0.99, 0.1, 0.1},              // in +Inf: the largest finite bound
		{0.89, 0.01 + 0.09*0.5, 0.01}, // halfway into the third
	} {
		v, floor := bucketLocate(c.q, b)
		if math.Abs(v-c.v) > 1e-12 || floor != c.floor {
			t.Errorf("q=%v: got %v (floor %v), want %v (floor %v)", c.q, v, floor, c.v, c.floor)
		}
	}
	if v := bucketQuantile(0.5, nil); !math.IsNaN(v) {
		t.Errorf("empty histogram quantile = %v, want NaN", v)
	}
}

func TestPromMalformed(t *testing.T) {
	for _, text := range []string{"novalue\n", "x{a=\"b\"} notanumber\n"} {
		if _, err := parseProm(text); err == nil {
			t.Errorf("parseProm(%q) accepted", text)
		}
	}
}
