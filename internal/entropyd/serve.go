package entropyd

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pollInterval is how long the consumer sleeps waiting for production
// to catch up — short, because it sits on the request latency path.
const pollInterval = 100 * time.Microsecond

// idlePoll is a healthy producer's rest when its shard is saturated
// (see Shard.saturated): an idle daemon then costs ~1k timer
// wakeups/s/shard and never spins. On a ring shard the latency cost is
// nil, since a full ring has at least one whole block buffered ahead of
// the consumer; on a tapped shard a seed draw that frees tap space
// wakes production within one idlePoll. A tapped producer waiting for
// a survey slot rests the same way.
const idlePoll = time.Millisecond

// Serve switches the pool into daemon mode: one producer goroutine per
// shard keeps the shard's buffer topped up with gated bits, quarantined
// shards recalibrate themselves with backoff, and consumers drain the
// rings through ReadBuffered. A tapped pool (Config.SeedTapBytes > 0)
// has no rings: its producers gate raw chunks through the tests,
// surveillance and seed tap, keep no gated bytes, and rest once the
// tap is full, assessed and covered by one live window; until then,
// once its epoch is assessed, it gates under the session's survey duty
// (see surveyDuty). Serve returns
// immediately; production stops — and the pool returns to batch mode —
// when ctx is cancelled or Stop is called, whichever comes first.
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
	duty := newSurveyDuty()
	for _, s := range p.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			p.runShard(ctx, s, duty)
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

// surveyDuty is a serve session's budget for the survey work that can
// wait: a tapped shard topping up its seed tap after its epoch's first
// assessment. Such a shard gates a raw chunk only while it holds one of
// the slots, max(1, GOMAXPROCS-1) of them, and only while the shards
// doing unpaced work (recalibrating, or assessing a new epoch) leave
// one over. Surveillance that can wait thus never takes the last
// processor from the request path, nor one from a shard on its way
// back into service.
type surveyDuty struct {
	slots   chan struct{}
	unpaced atomic.Int32 // tapped shards recalibrating or on their first assessment
}

func newSurveyDuty() *surveyDuty {
	return &surveyDuty{slots: make(chan struct{}, max(1, runtime.GOMAXPROCS(0)-1))}
}

// mark moves one shard's unpaced flag (*was, owned by the shard's
// producer) to now, keeping the session count in step.
func (d *surveyDuty) mark(was *bool, now bool) {
	if *was == now {
		return
	}
	*was = now
	if now {
		d.unpaced.Add(1)
	} else {
		d.unpaced.Add(-1)
	}
}

// acquire waits up to one idlePoll for a slot, resting while it waits,
// and reports whether the caller holds one. A slot that unpaced work
// needs is given back at once.
func (d *surveyDuty) acquire(ctx context.Context, s *Shard) (alive, held bool) {
	select {
	case d.slots <- struct{}{}:
	default:
		if alive, held = s.rest(ctx, d.slots); !held {
			return alive, false
		}
	}
	if int(d.unpaced.Load())+len(d.slots) > cap(d.slots) {
		<-d.slots
		return s.rest(ctx, nil)
	}
	return true, true
}

// runShard is a shard's producer loop: while healthy, fill the
// shard's buffer (the ring, or on a tapped pool the seed tap plus one
// live window of lookahead) and rest once it is saturated; while
// quarantined, recalibrate with backoff. Startup, recalibration and
// the first assessment of an epoch are never paced; after it, a tapped
// shard surveys each chunk under the session's survey duty.
func (p *Pool) runShard(ctx context.Context, s *Shard, duty *surveyDuty) {
	chunk := make([]byte, fillBlock)
	unpaced := false
	defer duty.mark(&unpaced, false)
	for ctx.Err() == nil {
		switch s.State() {
		case StateHealthy:
			// Checked every step, resting ones included, so an
			// operator drill lands within one idlePoll even when
			// production is idle.
			if s.injected.Swap(false) {
				s.quarantine(ReasonInjected)
				continue
			}
			if s.ring == nil {
				duty.mark(&unpaced, s.currentAssessment() == nil)
			}
			if s.saturated() {
				if alive, _ := s.rest(ctx, nil); !alive {
					return
				}
				continue
			}
			if s.ring == nil {
				if unpaced {
					s.survey()
					continue
				}
				alive, held := duty.acquire(ctx, s)
				if !alive {
					return
				}
				if held {
					s.survey()
					<-duty.slots
				}
				continue
			}
			n := s.produce(chunk[:min(s.ring.free(), len(chunk))])
			// An alarm mid-produce already drained the ring; the
			// bytes produced just before it are equally suspect
			// and must not be pushed.
			if n > 0 && s.State() == StateHealthy {
				s.ring.push(chunk[:n])
			}
		case StateQuarantined:
			duty.mark(&unpaced, false)
			if !sleepCtx(ctx, p.cfg.Health.RecalibrateBackoff) {
				return
			}
			duty.mark(&unpaced, s.ring == nil)
			s.recalibrate()
		default:
			if !sleepCtx(ctx, pollInterval) {
				return
			}
		}
	}
}

// rest parks a healthy producer for up to idlePoll and counts the time
// as rest. With non-nil slots it also queues for a survey slot and
// returns early once it holds one (held). Channel senders are served in
// FIFO order, so shards waiting for a slot take turns chunk by chunk.
func (s *Shard) rest(ctx context.Context, slots chan<- struct{}) (alive, held bool) {
	start := time.Now()
	defer func() { s.restNanos.Add(uint64(time.Since(start))) }()
	t := time.NewTimer(idlePoll)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false, false
	case <-t.C:
		return true, false
	case slots <- struct{}{}:
		return true, true
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
