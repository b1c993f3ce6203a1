package entropyd

import (
	"context"
	"errors"
	"sync"
	"time"
)

// pollInterval is how long the consumer sleeps waiting for production
// to catch up — short, because it sits on the request latency path.
const pollInterval = 100 * time.Microsecond

// idlePoll is the producer's sleep when its ring is full: an idle
// daemon then costs ~1k wakeups/s/shard instead of 10k, and the
// latency cost is nil — a full ring has at least one whole block
// buffered ahead of the consumer.
const idlePoll = time.Millisecond

// Serve switches the pool into daemon mode: one producer goroutine per
// shard keeps the shard's ring topped up with gated bytes, quarantined
// shards recalibrate themselves with backoff, and consumers drain the
// rings through ReadBuffered. A tapped pool (Config.SeedTapBytes > 0)
// has no rings: its producers run the gates, surveillance and seed tap
// and discard the gated bytes. Serve returns immediately; production
// stops — and the pool returns to batch mode — when ctx is cancelled
// or Stop is called, whichever comes first.
//
// Batch mode (Fill/Read/Recalibrate) is unavailable while serving.
func (p *Pool) Serve(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.serving.Swap(true) {
		return errors.New("entropyd: already serving")
	}
	ctx, cancel := context.WithCancel(ctx)
	p.stop = cancel
	// Session-local shutdown: wait out this session's producers, hand
	// the rotation cursor back, and reopen batch mode — exactly once,
	// whether the session ends by Stop or by context cancellation.
	wg := new(sync.WaitGroup)
	var once sync.Once
	finish := func() {
		once.Do(func() {
			wg.Wait()
			p.serving.Store(false)
		})
	}
	p.finish = finish
	for _, s := range p.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			p.runShard(ctx, s)
		}(s)
	}
	go func() {
		<-ctx.Done()
		finish()
	}()
	return nil
}

// Stop halts serve mode and waits for the producer goroutines; the
// pool then accepts batch calls again (shard streams continue where
// the rings left off). Redundant after a context cancellation, but
// harmless.
func (p *Pool) Stop() {
	p.mu.Lock()
	stop, finish := p.stop, p.finish
	p.mu.Unlock()
	if stop == nil {
		return
	}
	stop()
	finish() // blocks until the (possibly concurrent) shutdown completed
}

// runShard is a shard's producer loop: keep the ring full (or, on a
// tapped pool, keep producing) while healthy, recalibrate with backoff
// while quarantined.
func (p *Pool) runShard(ctx context.Context, s *Shard) {
	chunk := make([]byte, fillBlock)
	for ctx.Err() == nil {
		switch s.State() {
		case StateHealthy:
			// Injected alarms must land even when the ring is full
			// and produce() (the other check site) never runs — an
			// idle daemon still honors the operator drill.
			if s.injected.Swap(false) {
				s.quarantine(ReasonInjected)
				continue
			}
			if s.ring == nil {
				// Surveillance duty (DRBG mode): nothing consumes the
				// raw stream, but the embedded tests, the periodic
				// assessment and the seed tap all live off fresh raw
				// bits — the hardware analogue of a free-running
				// source under continuous health monitoring.
				s.produce(chunk)
				continue
			}
			free := s.ring.free()
			if free == 0 {
				if !sleepCtx(ctx, idlePoll) {
					return
				}
				continue
			}
			if free > len(chunk) {
				free = len(chunk)
			}
			n := s.produce(chunk[:free])
			// An alarm mid-produce already drained the ring; the
			// bytes produced just before it are equally suspect
			// and must not be pushed.
			if n > 0 && s.State() == StateHealthy {
				s.ring.push(chunk[:n])
			}
		case StateQuarantined:
			if !sleepCtx(ctx, p.cfg.Health.RecalibrateBackoff) {
				return
			}
			s.recalibrate()
		default:
			if !sleepCtx(ctx, pollInterval) {
				return
			}
		}
	}
}

// sleepCtx sleeps for d unless the context ends first; reports whether
// the context is still alive.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// ReadBuffered moves up to len(dst) bytes from the shard rings into
// dst, waiting up to `wait` for production to catch up, and returns
// the byte count; (0, ErrStarved) when nothing could be served within
// the deadline.
//
// Consumption follows the same deterministic rotation as Fill — blocks
// of fillBlock bytes taken round-robin from the healthy shards, each
// block drained from its shard's ring in order — so in the healthy
// steady state the buffered stream is bit-identical to the Fill stream
// of an identically configured pool. When the current shard drops out
// mid-block (its ring was drained at quarantine), the rotation moves
// on to the next healthy shard, which starts a fresh full block;
// re-admitted shards rejoin the rotation at their next turn.
//
// A tapped pool serves DRBG output, never the raw stream: it has no
// rings, and ReadBuffered returns ErrNotServing.
func (p *Pool) ReadBuffered(dst []byte, wait time.Duration) (int, error) {
	if !p.serving.Load() || p.cfg.SeedTapBytes > 0 {
		return 0, ErrNotServing
	}
	if len(dst) == 0 {
		return 0, nil
	}
	p.consMu.Lock()
	defer p.consMu.Unlock()
	// The wait budget starts once the consumer is in service, so
	// requests queued behind a slow one are not pre-starved by lock
	// wait (the daemon bounds the queue separately).
	deadline := time.Now().Add(wait)
	n := 0
	for n < len(dst) {
		if !p.serving.Load() {
			// Stop() is waiting on consMu; hand the cursor back.
			break
		}
		s := p.shards[p.rrShard]
		if s.State() != StateHealthy {
			if !p.nextHealthy(true) {
				if time.Now().After(deadline) {
					break
				}
				time.Sleep(pollInterval)
			}
			continue
		}
		want := len(dst) - n
		if want > p.rrLeft {
			want = p.rrLeft
		}
		got := s.ring.pop(dst[n : n+want])
		n += got
		p.rrLeft -= got
		if p.rrLeft == 0 {
			p.nextHealthy(false)
		}
		if got == 0 {
			// Healthy but the producer is behind: the rotation
			// waits for THIS shard (that is what keeps the
			// interleave deterministic) until the deadline.
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(pollInterval)
		}
	}
	p.bytesOut.Add(uint64(n))
	if n == 0 {
		return 0, ErrStarved
	}
	return n, nil
}

// nextHealthy advances the rotation cursor to the next healthy shard
// and resets the block budget. With skipCurrent the current shard is
// excluded (it just dropped out). Reports whether a healthy shard was
// found; on failure the cursor is left in place.
func (p *Pool) nextHealthy(skipCurrent bool) bool {
	k := len(p.shards)
	for d := 1; d <= k; d++ {
		i := (p.rrShard + d) % k
		if i == p.rrShard && skipCurrent {
			continue
		}
		if p.shards[i].State() == StateHealthy {
			p.rrShard = i
			p.rrLeft = fillBlock
			return true
		}
	}
	return false
}
