// Package load drives a request function with an open loop and
// measures what a client sees.
//
// Open sends arrivals on a fixed schedule, arrival i due at
// start + i/rate, whatever the server does. Arrivals wait in a queue
// for one of a fixed set of connections; none is shed. Latency is timed
// from each arrival's due time, so a stall charges its wait to every
// request queued behind it instead of hiding it (coordinated
// omission). Arrivals still queued when the window ends are counted as
// failed, and the generator's own lateness is reported, so a report
// shows when the client, not the server, was the bottleneck.
package load

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Func issues one request and returns the payload bytes received. A
// non-nil error marks the request failed.
type Func func(ctx context.Context) (int, error)

// Report is the client's view of one measurement window.
type Report struct {
	// Arrivals counts requests due in the window.
	Arrivals uint64
	// OK counts requests that succeeded; Bytes is their payload total.
	OK    uint64
	Bytes uint64
	// Failed counts failed requests plus NotStarted.
	Failed uint64
	// NotStarted counts arrivals still queued when the window ended.
	NotStarted uint64
	// Latency holds the successful requests' latencies, each timed from
	// its due time.
	Latency Durations
	// Late holds how far behind schedule the generator released each
	// arrival.
	Late Durations
}

// Durations is an ascending list of measured durations. Windows hold
// at most a few thousand requests, so every sample is kept and
// quantiles are exact.
type Durations []time.Duration

// Quantile interpolates linearly between the two samples around rank
// q·(n-1); 0 when empty.
func (d Durations) Quantile(q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	pos := q * float64(len(d)-1)
	i := int(pos)
	if i >= len(d)-1 {
		return d[len(d)-1]
	}
	return d[i] + time.Duration((pos-float64(i))*float64(d[i+1]-d[i]))
}

// Sorted returns the samples in ascending order.
func Sorted(d []time.Duration) Durations {
	s := append(Durations(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// Merge pools reports of separate windows into one.
func Merge(reps ...Report) Report {
	var m Report
	var lat, late []time.Duration
	for _, r := range reps {
		m.Arrivals += r.Arrivals
		m.OK += r.OK
		m.Bytes += r.Bytes
		m.Failed += r.Failed
		m.NotStarted += r.NotStarted
		lat = append(lat, r.Latency...)
		late = append(late, r.Late...)
	}
	m.Latency, m.Late = Sorted(lat), Sorted(late)
	return m
}

// recorder is the shared tally of one window.
type recorder struct {
	arrivals, ok, failed, notStarted, bytes atomic.Uint64

	mu        sync.Mutex
	lat, late []time.Duration
}

// do runs one request due at the given time.
func (r *recorder) do(ctx context.Context, fn Func, due time.Time) {
	n, err := fn(ctx)
	if err != nil {
		r.failed.Add(1)
		return
	}
	d := time.Since(due)
	r.mu.Lock()
	r.lat = append(r.lat, d)
	r.mu.Unlock()
	r.ok.Add(1)
	r.bytes.Add(uint64(n))
}

func (r *recorder) report() Report {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Report{
		Arrivals:   r.arrivals.Load(),
		OK:         r.ok.Load(),
		Bytes:      r.bytes.Load(),
		Failed:     r.failed.Load() + r.notStarted.Load(),
		NotStarted: r.notStarted.Load(),
		Latency:    Sorted(r.lat),
		Late:       Sorted(r.late),
	}
}

// Open releases arrivals at rate per second for d and serves them from
// conns connections, or stops releasing when ctx ends.
func Open(ctx context.Context, rate float64, conns int, d time.Duration, fn Func) Report {
	r := &recorder{}
	n := int(math.Ceil(rate * d.Seconds()))
	interval := time.Duration(float64(time.Second) / rate)
	due := make(chan time.Time, n) // sized to the number of sends: the dispatcher never blocks
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for at := range due {
				if !time.Now().Before(end) {
					r.notStarted.Add(1)
					continue
				}
				r.do(ctx, fn, at)
			}
		}()
	}
	t := time.NewTimer(0)
	defer t.Stop()
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * interval)
		if !at.Before(end) {
			break
		}
		t.Reset(time.Until(at))
		select {
		case <-ctx.Done():
		case <-t.C:
		}
		if ctx.Err() != nil {
			break
		}
		late := time.Since(at)
		r.mu.Lock()
		r.late = append(r.late, late)
		r.mu.Unlock()
		r.arrivals.Add(1)
		due <- at
	}
	close(due)
	wg.Wait()
	return r.report()
}
