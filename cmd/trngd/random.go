package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/entropyd"
	"repro/internal/obs"
)

// chunkBytes is the pooled response-buffer size: larger requests
// stream in chunkBytes slices instead of holding an n-byte buffer per
// request for the whole service time.
const chunkBytes = 64 << 10

// respBuf is a pooled response buffer plus a per-size header cache.
// Together they make the steady-state request path allocation-free:
// the buffer replaces the per-request make([]byte, n), and repeated
// requests for the same n reuse the rendered Content-Length value.
type respBuf struct {
	buf   [chunkBytes]byte
	lastN int
	cl    []string
}

var respBufs = sync.Pool{New: func() any { return new(respBuf) }}

// contentLength returns a cached Content-Length header value for n.
func (rb *respBuf) contentLength(n int) []string {
	if rb.cl == nil || rb.lastN != n {
		rb.cl = []string{strconv.Itoa(n)}
		rb.lastN = n
	}
	return rb.cl
}

// ctOctet is the shared Content-Type header value, assigned directly
// into the header map (http.Header.Set would allocate a fresh
// one-element slice per request).
var ctOctet = []string{"application/octet-stream"}

// queryParam extracts key's value from a raw query string without
// allocating (r.URL.Query() builds a url.Values map per call). It
// agrees with url.ParseQuery(raw).Get/Has on every query ParseQuery
// accepts. Escaped keys and values fall back to url.QueryUnescape;
// /random's parameters are plain integers and booleans, so a
// well-formed client never leaves the fast path.
func queryParam(raw, key string) (string, bool) {
	for len(raw) > 0 {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		if strings.ContainsAny(k, "%+") {
			u, err := url.QueryUnescape(k)
			if err != nil {
				continue
			}
			k = u
		}
		if k != key {
			continue
		}
		if strings.ContainsAny(v, "%+") {
			if u, err := url.QueryUnescape(v); err == nil {
				return u, true
			}
		}
		return v, true
	}
	return "", false
}

// generate fills dst from the serving path of the active mode. A nil
// error with a short count is starvation (unavailability); a non-nil
// error is an internal fault.
func (s *server) generate(dst []byte, pr bool) (int, error) {
	if s.drbg != nil {
		// DRBG mode: expansion-layer output. A short count means no
		// lane could (re)seed in time — every shard quarantined,
		// unassessed, or the tap starved. Fail closed.
		got, err := s.drbg.Generate(dst, pr, s.cfg.wait)
		if err != nil && !errors.Is(err, entropyd.ErrSeedStarved) {
			return got, err
		}
		return got, nil
	}
	// Raw mode: ReadBuffered waits out the deadline internally; a
	// short return means the healthy shards could not produce the
	// bytes in time (or none are healthy). The partial bytes are
	// dropped.
	got, err := s.pool.ReadBuffered(dst, s.cfg.wait)
	if err != nil && !errors.Is(err, entropyd.ErrStarved) && !errors.Is(err, entropyd.ErrNotServing) {
		return got, err
	}
	return got, nil
}

// handleRandom is GET /random?bytes=N: the zero-allocation hot path.
// Responses are produced into pooled chunkBytes buffers and streamed,
// so a 1 MiB request never holds a 1 MiB allocation and steady-state
// requests allocate nothing at all.
func (s *server) handleRandom(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	t0 := time.Now()
	// Phase accumulators for the request-phase histograms. Recorded in
	// one defer (still allocation-free: the deferred closure is
	// open-coded) and only for requests that entered the queue, so the
	// three phases always have equal counts.
	var queueDur, genDur, writeDur time.Duration
	entered := false
	defer func() {
		s.lat.Record(time.Since(t0))
		if entered {
			s.latQueue.Record(queueDur)
			s.latGen.Record(genDur)
			s.latWrite.Record(writeDur)
		}
	}()
	s.requests.Add(1)
	n := 32
	if q, ok := queryParam(r.URL.RawQuery, "bytes"); ok && q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 1 {
			http.Error(w, "bytes must be a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	if n > s.cfg.maxBytes {
		http.Error(w, fmt.Sprintf("bytes exceeds limit %d", s.cfg.maxBytes), http.StatusBadRequest)
		return
	}
	pr := false
	if q, ok := queryParam(r.URL.RawQuery, "pr"); ok && q != "" {
		v, err := strconv.ParseBool(q)
		if err != nil {
			http.Error(w, "pr must be a boolean", http.StatusBadRequest)
			return
		}
		if v && s.drbg == nil {
			http.Error(w, "prediction resistance requires -mode drbg", http.StatusBadRequest)
			return
		}
		pr = v
	}
	// Bounded queue: reject instead of queueing unboundedly.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Add(1)
		s.emit(obs.Event{Type: obs.TypeRequestShed, Shard: obs.Any, Lane: obs.Any,
			Value: float64(n), Reason: "queue full"})
		http.Error(w, "request queue full", http.StatusServiceUnavailable)
		return
	}
	queueDur = time.Since(t0)
	entered = true
	rb := respBufs.Get().(*respBuf)
	defer respBufs.Put(rb)
	for written := 0; written < n; {
		c := n - written
		if c > chunkBytes {
			c = chunkBytes
		}
		chunk := rb.buf[:c]
		g0 := time.Now()
		got, err := s.generate(chunk, pr)
		genDur += time.Since(g0)
		if err != nil && written == 0 {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err == nil && got < c {
			// Starved or shutting down: the pool could not produce the
			// bytes in time — unavailability, not an error.
			s.starved.Add(1)
			s.emit(obs.Event{Type: obs.TypeStarveAbort, Shard: obs.Any, Lane: obs.Any,
				Value: float64(written), Reason: "pool unavailable"})
		}
		if err != nil || got < c {
			if written == 0 {
				http.Error(w, "pool unavailable", http.StatusServiceUnavailable)
				return
			}
			// Mid-stream failure: the 200 and Content-Length are
			// already on the wire. Abort the connection so the client
			// sees a truncated body — never padded or stale bytes.
			panic(http.ErrAbortHandler)
		}
		if written == 0 {
			h := w.Header()
			h["Content-Type"] = ctOctet
			h["Content-Length"] = rb.contentLength(n)
		}
		w0 := time.Now()
		_, werr := w.Write(chunk)
		writeDur += time.Since(w0)
		if werr != nil {
			// Client went away; nothing useful left to do.
			return
		}
		written += c
	}
	s.served.Add(uint64(n))
}
