package load

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stallServer answers every request at once except the stallAt-th,
// which it holds for stall.
func stallServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
}

func get(client *http.Client, url string) Func {
	return func(ctx context.Context) (int, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return len(b), err
	}
}

// TestOpenQueuesBehindStall holds one request for 300 ms on a single
// connection at 100 arrivals/s. The arrivals due during the stall must
// queue — none shed, none lost — and carry their queueing delay,
// timed from when each was due.
func TestOpenQueuesBehindStall(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := stallServer(10, stall)
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()

	rep := Open(context.Background(), 100, 1, time.Second, get(client, srv.URL))
	if rep.Arrivals != 100 {
		t.Fatalf("arrivals = %d, want 100", rep.Arrivals)
	}
	if rep.Failed != 0 || rep.OK != rep.Arrivals {
		t.Fatalf("ok %d failed %d of %d arrivals: queued arrivals were lost", rep.OK, rep.Failed, rep.Arrivals)
	}
	// Arrivals 10..39 are due during the stall; each waits for what is
	// left of it. At least 20 of them wait over 100 ms.
	slow := 0
	for _, d := range rep.Latency {
		if d > 100*time.Millisecond {
			slow++
		}
	}
	if slow < 20 {
		t.Errorf("%d requests over 100 ms, want >= 20 (queueing delay not charged)", slow)
	}
	if max := rep.Latency.Quantile(1); max < stall-20*time.Millisecond {
		t.Errorf("max latency %v, want about the %v stall", max, stall)
	}
	if p99 := rep.Late.Quantile(0.99); p99 > 50*time.Millisecond {
		t.Errorf("generator late by %v at p99: the stall leaked into the schedule", p99)
	}
}

// TestOpenCountsNotStarted queues more work than one connection can
// start inside the window: the leftovers are failed, not dropped.
func TestOpenCountsNotStarted(t *testing.T) {
	slow := func(ctx context.Context) (int, error) {
		time.Sleep(50 * time.Millisecond)
		return 1, nil
	}
	rep := Open(context.Background(), 100, 1, 200*time.Millisecond, slow)
	if rep.Arrivals != 20 {
		t.Fatalf("arrivals = %d, want 20", rep.Arrivals)
	}
	if rep.NotStarted == 0 || rep.Failed != rep.NotStarted {
		t.Fatalf("not started %d failed %d, want equal and > 0", rep.NotStarted, rep.Failed)
	}
	if rep.OK+rep.Failed != rep.Arrivals {
		t.Fatalf("ok %d + failed %d != arrivals %d", rep.OK, rep.Failed, rep.Arrivals)
	}
}

func TestQuantile(t *testing.T) {
	d := Sorted([]time.Duration{40, 10, 30, 20})
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, 10}, {0.5, 25}, {1, 40}, {1.0 / 3, 20}} {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Durations(nil).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %v", got)
	}
}

func TestMerge(t *testing.T) {
	a := Report{Arrivals: 3, OK: 2, Bytes: 20, Failed: 1, NotStarted: 1,
		Latency: Durations{5, 9}, Late: Durations{1, 2, 3}}
	b := Report{Arrivals: 2, OK: 2, Bytes: 10,
		Latency: Durations{1, 7}, Late: Durations{4, 0}}
	m := Merge(a, b)
	if m.Arrivals != 5 || m.OK != 4 || m.Bytes != 30 || m.Failed != 1 || m.NotStarted != 1 {
		t.Fatalf("merged counts %+v", m)
	}
	if len(m.Latency) != 4 || m.Latency[0] != 1 || m.Latency[3] != 9 || len(m.Late) != 5 || m.Late[0] != 0 {
		t.Fatalf("merged samples %v / %v, want sorted unions", m.Latency, m.Late)
	}
}
