// Package obs is the observability spine of the serving stack: a
// lock-light, fixed-capacity flight recorder (Journal) of typed events
// covering shard lifecycle, DRBG lane activity, seed draws and daemon
// incidents. The journal only records and pages; every timing derived
// from events — detection latency included — is folded in one place,
// the incident engine (internal/obs/incident).
//
// # Event vocabulary
//
// Every event carries a journal-assigned monotonic sequence number, a
// wall-clock timestamp, the shard and/or DRBG lane it describes (-1
// when not applicable) and a small reason/value payload:
//
//   - shard lifecycle: startup-pass, startup-fail, alarm (with the
//     triggering statistic in Value: the tot run length, the thermal
//     monitor's windowed variance, or the assessed min-entropy),
//     live-watermark (the streaming surveillance bound crossed its low
//     watermark mid-window; Value = the live suite minimum), quarantine
//     (with the reason and drained byte count), recalibrate, heal;
//   - DRBG lanes: drbg-instantiate, drbg-reseed, drbg-reseed-fail,
//     drbg-fail-closed;
//   - seed source: seed-draw (Value = vetted output-entropy credit in
//     bits, Shard/Epoch = the tap that supplied the raw material);
//   - daemon: request-shed (bounded queue full), starvation-abort
//     (a request failed or was truncated on pool starvation), shutdown
//     (graceful stop began: the daemon stops accepting and drains);
//   - drills: injection-marker, emitted by attack drills and the
//     operator /quarantine endpoint at the moment a degradation is
//     injected. The incident engine turns the marker → quarantine gap
//     into the per-alarm-class detection latency — the measured
//     version of the paper's §V detection argument.
//
// # Journal semantics
//
// The journal is a power-of-two ring of slots. Emission reserves a
// sequence number with one atomic add and stamps the slot under a
// per-slot mutex — no global lock, no allocation — so producers on the
// serving hot path never contend with each other or with readers
// except on the same slot. The ring keeps the most recent Capacity
// events: older events are overwritten, never blocked on. Readers page
// forward with a cursor (Query.Since); Read reports the cursor gap —
// the events lost to overwrite before the reader got to them — as an
// explicit Page.Dropped count.
//
// Emission is passive by construction: sinks observe state transitions
// and never feed back into generation, so enabling or disabling a sink
// cannot change any served byte stream (pinned by the entropyd tests).
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Type classifies a journal event. The string form is the wire
// vocabulary: /events JSON, structured log lines and metric labels all
// use these exact values.
type Type string

// The event vocabulary.
const (
	// TypeStartupPass: a shard passed its AIS31 startup test and was
	// admitted for the epoch.
	TypeStartupPass Type = "startup-pass"
	// TypeStartupFail: the startup test failed statistically (Value =
	// failed sub-test count, Detail = their names).
	TypeStartupFail Type = "startup-fail"
	// TypeAlarm: an embedded test alarmed. Reason is the alarm class
	// (tot, thermal-low, thermal-high, low-entropy) and Value the
	// triggering statistic.
	TypeAlarm Type = "alarm"
	// TypeQuarantine: the shard left service. Reason is the quarantine
	// reason, Value the ring bytes drained unserved.
	TypeQuarantine Type = "quarantine"
	// TypeRecalibrate: a recalibration attempt began (Epoch is the new
	// epoch).
	TypeRecalibrate Type = "recalibrate"
	// TypeHeal: a recalibration succeeded and the shard rejoined.
	TypeHeal Type = "heal"
	// TypeDRBGInstantiate: a DRBG lane instantiated from fresh seed
	// material.
	TypeDRBGInstantiate Type = "drbg-instantiate"
	// TypeDRBGReseed: a lane reseeded (interval or prediction
	// resistance).
	TypeDRBGReseed Type = "drbg-reseed"
	// TypeDRBGReseedFail: a seeding attempt failed; the lane produced
	// nothing this turn (Reason = the failure).
	TypeDRBGReseedFail Type = "drbg-reseed-fail"
	// TypeDRBGFailClosed: every lane failed in one rotation — the
	// expansion layer refused the request (Value = bytes served before
	// failing).
	TypeDRBGFailClosed Type = "drbg-fail-closed"
	// TypeSeedDraw: the seed source emitted one conditioned block
	// (Shard/Epoch = the supplying tap, Value = vetted output-entropy
	// credit in bits).
	TypeSeedDraw Type = "seed-draw"
	// TypeRequestShed: the daemon's bounded queue rejected a request.
	TypeRequestShed Type = "request-shed"
	// TypeStarveAbort: a request failed or was truncated mid-stream on
	// pool starvation.
	TypeStarveAbort Type = "starvation-abort"
	// TypeShutdown: the daemon began a graceful shutdown (Detail =
	// the trigger; Value = the drain deadline in seconds). In-flight
	// requests drain before the process exits, so this is normally the
	// journal's final event.
	TypeShutdown Type = "shutdown"
	// TypeInjectionMarker: a drill injected a degradation into a shard
	// (operator /quarantine endpoint, attack experiments). The incident
	// engine measures detection latency from it.
	TypeInjectionMarker Type = "injection-marker"
	// TypeLiveWatermark: a shard's streaming-surveillance live
	// min-entropy crossed its low watermark MID-window (Value = the
	// live suite minimum, Detail = the sliding window size). Emitted at
	// the crossing site, immediately ahead of the live-low-entropy
	// alarm and quarantine it raises.
	TypeLiveWatermark Type = "live-watermark"
)

// Event is one journal entry. Seq and At are assigned by the journal
// at emission (a caller-provided non-zero At is kept, for replay).
type Event struct {
	// Seq is the monotonic sequence number, 1 for the first event.
	Seq uint64 `json:"seq"`
	// At is the wall-clock emission time.
	At time.Time `json:"at"`
	// Type is the event class.
	Type Type `json:"type"`
	// Shard is the shard index the event describes, -1 when the event
	// is not shard-scoped.
	Shard int `json:"shard"`
	// Lane is the DRBG lane index, -1 when not lane-scoped.
	Lane int `json:"lane"`
	// Epoch is the shard calibration epoch the event belongs to.
	Epoch int64 `json:"epoch,omitempty"`
	// Reason is the alarm class / quarantine reason / failure text.
	Reason string `json:"reason,omitempty"`
	// Value is the event's scalar payload (triggering statistic,
	// drained bytes/blocks, credited entropy bits).
	Value float64 `json:"value,omitempty"`
	// Detail is a short free-form annotation.
	Detail string `json:"detail,omitempty"`
}

// Sink receives emitted events. Implementations must be safe for
// concurrent use and must never block for long or feed back into the
// emitting layer: emission sits on serving paths.
type Sink interface {
	Emit(Event)
}

// Emit sends e to s when s is non-nil — the nil-safe emission helper
// for layers that hold an optional sink.
func Emit(s Sink, e Event) {
	if s != nil {
		s.Emit(e)
	}
}

// multiSink fans one emission out to several sinks.
type multiSink []Sink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi composes sinks into one; nil elements are skipped. It returns
// nil when no live sink remains and the single sink unwrapped when
// exactly one does, so callers can wire optional sinks without
// paying for an empty fan-out.
func Multi(sinks ...Sink) Sink {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

// slot is one ring cell. The mutex protects only the copy-in/copy-out
// of the event value (a few dozen words); writers touch a slot once
// per Capacity emissions each.
type slot struct {
	mu sync.Mutex
	ev Event
}

// DefaultCapacity is the journal size used when a caller passes 0.
const DefaultCapacity = 4096

// Journal is the flight recorder: a fixed-capacity ring of the most
// recent events. Safe for any number of concurrent emitters and
// readers.
type Journal struct {
	slots []slot
	mask  uint64
	seq   atomic.Uint64 // last assigned sequence number
}

// NewJournal builds a journal holding the most recent capacity events
// (rounded up to a power of two; 0 means DefaultCapacity).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Journal{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Capacity returns the ring size.
func (j *Journal) Capacity() int { return len(j.slots) }

// LastSeq returns the latest assigned sequence number (= total events
// ever emitted); 0 before the first event. It is the /events cursor a
// reader starts from to receive only future events.
func (j *Journal) LastSeq() uint64 { return j.seq.Load() }

// Emit records the event: one atomic add to reserve the sequence
// number, one per-slot critical section to stamp it.
func (j *Journal) Emit(e Event) {
	if e.At.IsZero() {
		e.At = time.Now()
	}
	seq := j.seq.Add(1)
	e.Seq = seq
	sl := &j.slots[(seq-1)&j.mask]
	sl.mu.Lock()
	sl.ev = e
	sl.mu.Unlock()
}

// Any matches every shard or lane in a Query.
const Any = -1

// Query selects journal events. The zero value matches only shard 0 /
// lane 0 — build from NewQuery for a match-all baseline.
type Query struct {
	// Since is the reader's cursor: only events with Seq > Since are
	// returned. 0 reads from the oldest retained event.
	Since uint64
	// Shard filters by shard index; Any (-1) matches all.
	Shard int
	// Lane filters by DRBG lane index; Any (-1) matches all.
	Lane int
	// Type filters by event class; empty matches all.
	Type Type
	// Max caps the returned events (oldest first, so readers page
	// forward by advancing Since); <= 0 means the journal capacity.
	Max int
}

// NewQuery returns the match-all query: every shard, lane and type,
// from the oldest retained event.
func NewQuery() Query { return Query{Shard: Any, Lane: Any} }

// Page is one cursor read of the journal: the matching events, the
// caller's next cursor, and how many events the ring overwrote before
// the reader got to them. It is also the GET /events wire shape.
type Page struct {
	// LastSeq is the journal's last assigned sequence number at scan
	// time — the caller's next baseline cursor even when no event
	// matched.
	LastSeq uint64 `json:"last_seq"`
	// Dropped counts the events between the reader's cursor and the
	// oldest sequence number still retained: history the flight
	// recorder lost to overwrite before this read. A reader paging
	// from cursor 0 on a wrapped journal sees the full backlog it
	// never observed.
	Dropped uint64 `json:"dropped"`
	// Events holds the matching events in ascending sequence order.
	Events []Event `json:"events"`
}

// Read returns one page of matching events along with the cursor gap:
// the count of events overwritten between the reader's cursor and the
// oldest retained sequence number. Events emitted concurrently with
// the scan may be missing from this page; the next one picks them up.
// A cursor at or past LastSeq reads an empty page with nothing
// dropped.
func (j *Journal) Read(q Query) Page {
	hi := j.seq.Load()
	if q.Since >= hi {
		return Page{LastSeq: hi}
	}
	capacity := uint64(len(j.slots))
	lo := q.Since + 1
	var dropped uint64
	if hi >= capacity && lo < hi-capacity+1 {
		dropped = hi - capacity + 1 - lo
		lo = hi - capacity + 1
	}
	max := q.Max
	if max <= 0 || max > len(j.slots) {
		max = len(j.slots)
	}
	var out []Event
	for s := lo; s <= hi && len(out) < max; s++ {
		sl := &j.slots[(s-1)&j.mask]
		sl.mu.Lock()
		ev := sl.ev
		sl.mu.Unlock()
		if ev.Seq != s {
			continue // overwritten mid-scan, or emission not yet stamped
		}
		if q.Shard != Any && ev.Shard != q.Shard {
			continue
		}
		if q.Lane != Any && ev.Lane != q.Lane {
			continue
		}
		if q.Type != "" && ev.Type != q.Type {
			continue
		}
		out = append(out, ev)
	}
	return Page{Events: out, LastSeq: hi, Dropped: dropped}
}
