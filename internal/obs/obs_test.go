package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestJournalBasic: events come back in order with the fields intact.
func TestJournalBasic(t *testing.T) {
	j := NewJournal(16)
	if j.Capacity() != 16 {
		t.Fatalf("capacity = %d, want 16", j.Capacity())
	}
	if j.LastSeq() != 0 {
		t.Fatalf("fresh journal LastSeq = %d", j.LastSeq())
	}
	j.Emit(Event{Type: TypeStartupPass, Shard: 0, Lane: Any, Epoch: 1})
	j.Emit(Event{Type: TypeAlarm, Shard: 1, Lane: Any, Reason: "tot", Value: 34})
	j.Emit(Event{Type: TypeQuarantine, Shard: 1, Lane: Any, Reason: "tot", Value: 4096})

	p := j.Read(NewQuery())
	evs, last := p.Events, p.LastSeq
	if last != 3 {
		t.Fatalf("last = %d, want 3", last)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d", i, ev.Seq)
		}
		if ev.At.IsZero() {
			t.Errorf("event %d has zero timestamp", i)
		}
	}
	if evs[1].Type != TypeAlarm || evs[1].Reason != "tot" || evs[1].Value != 34 {
		t.Errorf("alarm event mangled: %+v", evs[1])
	}
}

// TestJournalCursorAndFilters: ?since= semantics, shard/type filters,
// Max paging.
func TestJournalCursorAndFilters(t *testing.T) {
	j := NewJournal(64)
	for i := 0; i < 10; i++ {
		j.Emit(Event{Type: TypeSeedDraw, Shard: i % 3, Lane: Any})
	}
	j.Emit(Event{Type: TypeQuarantine, Shard: 1, Lane: Any, Reason: "thermal-low"})

	q := NewQuery()
	q.Since = 10
	p := j.Read(q)
	if p.LastSeq != 11 || len(p.Events) != 1 || p.Events[0].Type != TypeQuarantine {
		t.Fatalf("since=10: last=%d evs=%+v", p.LastSeq, p.Events)
	}

	// A cursor at or past LastSeq reads nothing and drops nothing —
	// the maximum cursor must not wrap back to the oldest slot, on an
	// unwrapped ring or a wrapped one.
	wrapped := NewJournal(8)
	for i := 0; i < 20; i++ {
		wrapped.Emit(Event{Type: TypeSeedDraw, Shard: 0, Lane: Any})
	}
	for _, jj := range []*Journal{j, wrapped} {
		for _, since := range []uint64{jj.LastSeq(), jj.LastSeq() + 1, math.MaxUint64} {
			q.Since = since
			if p := jj.Read(q); len(p.Events) != 0 || p.Dropped != 0 || p.LastSeq != jj.LastSeq() {
				t.Fatalf("since=%d on capacity %d: %d events, dropped %d, last %d",
					since, jj.Capacity(), len(p.Events), p.Dropped, p.LastSeq)
			}
		}
	}

	q = NewQuery()
	q.Shard = 2
	evs := j.Read(q).Events
	if len(evs) != 3 {
		t.Fatalf("shard=2 filter: got %d events, want 3", len(evs))
	}
	for _, ev := range evs {
		if ev.Shard != 2 {
			t.Errorf("shard filter leaked %+v", ev)
		}
	}

	q = NewQuery()
	q.Type = TypeQuarantine
	evs = j.Read(q).Events
	if len(evs) != 1 || evs[0].Reason != "thermal-low" {
		t.Fatalf("type filter: %+v", evs)
	}

	// Paging: Max caps a page, advancing Since fetches the rest.
	q = NewQuery()
	q.Max = 4
	page1 := j.Read(q).Events
	if len(page1) != 4 {
		t.Fatalf("page1 len = %d", len(page1))
	}
	q.Since = page1[len(page1)-1].Seq
	page2 := j.Read(q).Events
	if len(page2) != 4 || page2[0].Seq != page1[len(page1)-1].Seq+1 {
		t.Fatalf("page2 did not resume at cursor: %+v", page2)
	}
}

// TestJournalWraparound: after overflow only the newest Capacity
// events survive, and a stale cursor observes the gap via sequence
// numbers rather than silently re-reading overwritten slots.
func TestJournalWraparound(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 20; i++ {
		j.Emit(Event{Type: TypeSeedDraw, Shard: 0, Lane: Any, Value: float64(i)})
	}
	p := j.Read(NewQuery())
	evs, last := p.Events, p.LastSeq
	if last != 20 {
		t.Fatalf("last = %d", last)
	}
	if len(evs) != 8 {
		t.Fatalf("got %d events, want capacity 8", len(evs))
	}
	if evs[0].Seq != 13 || evs[len(evs)-1].Seq != 20 {
		t.Fatalf("retained window [%d, %d], want [13, 20]", evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

// TestJournalDroppedCount: Read reports the cursor gap explicitly —
// how many events the ring overwrote before the reader's cursor
// caught up — and zero when the cursor is inside the retained window.
func TestJournalDroppedCount(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 6; i++ {
		j.Emit(Event{Type: TypeSeedDraw, Shard: 0, Lane: Any})
	}
	// No wrap yet: nothing dropped from any cursor.
	if p := j.Read(NewQuery()); p.Dropped != 0 || len(p.Events) != 6 {
		t.Fatalf("pre-wrap page: dropped=%d n=%d", p.Dropped, len(p.Events))
	}
	for i := 0; i < 14; i++ { // total 20 through a capacity-8 ring
		j.Emit(Event{Type: TypeSeedDraw, Shard: 0, Lane: Any})
	}
	// A cursor at 6 lost events 7..12: the ring retains [13, 20].
	q := NewQuery()
	q.Since = 6
	p := j.Read(q)
	if p.LastSeq != 20 || p.Dropped != 6 {
		t.Fatalf("stale cursor: last=%d dropped=%d, want 20/6", p.LastSeq, p.Dropped)
	}
	if len(p.Events) != 8 || p.Events[0].Seq != 13 {
		t.Fatalf("stale cursor events: %+v", p.Events)
	}
	// A fresh reader (cursor 0) never saw the first 12 at all.
	if p := j.Read(NewQuery()); p.Dropped != 12 {
		t.Fatalf("fresh cursor dropped=%d, want 12", p.Dropped)
	}
	// A cursor inside the retained window drops nothing.
	q.Since = 15
	if p := j.Read(q); p.Dropped != 0 || len(p.Events) != 5 {
		t.Fatalf("live cursor: dropped=%d n=%d", p.Dropped, len(p.Events))
	}
}

// TestJournalStress: concurrent emitters and readers under -race.
// Sequence numbers must be unique and strictly increasing per page,
// and with the event count below capacity no event may be lost.
func TestJournalStress(t *testing.T) {
	const (
		emitters  = 8
		perEmit   = 500
		journalSz = emitters * perEmit // below capacity: nothing may drop
	)
	j := NewJournal(journalSz)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers page forward with a cursor while writers are active.
	var readerErr atomic.Value
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var cursor uint64
			for {
				q := NewQuery()
				q.Since = cursor
				p := j.Read(q)
				evs, last := p.Events, p.LastSeq
				prev := cursor
				for _, ev := range evs {
					if ev.Seq <= prev {
						readerErr.Store(ev.Seq)
						return
					}
					prev = ev.Seq
				}
				cursor = last
				select {
				case <-stop:
					if cursor >= emitters*perEmit {
						return
					}
				default:
				}
			}
		}()
	}
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < perEmit; i++ {
				j.Emit(Event{Type: TypeSeedDraw, Shard: e, Lane: Any, Value: float64(i)})
			}
		}(e)
	}
	// Emitters finish, then release the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		if j.LastSeq() == emitters*perEmit {
			close(stop)
			break
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	if v := readerErr.Load(); v != nil {
		t.Fatalf("reader saw non-increasing seq %v", v)
	}

	// Total below capacity: every event retained, none duplicated.
	p := j.Read(NewQuery())
	evs, last := p.Events, p.LastSeq
	if last != emitters*perEmit {
		t.Fatalf("last = %d, want %d", last, emitters*perEmit)
	}
	if len(evs) != emitters*perEmit {
		t.Fatalf("retained %d events, want %d (capacity %d)", len(evs), emitters*perEmit, j.Capacity())
	}
	perShard := map[int]int{}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		perShard[ev.Shard]++
	}
	for e := 0; e < emitters; e++ {
		if perShard[e] != perEmit {
			t.Errorf("emitter %d: %d events retained, want %d", e, perShard[e], perEmit)
		}
	}
}

// TestMulti: nil handling and fan-out.
func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi should be nil")
	}
	j := NewJournal(8)
	if Multi(nil, j, nil) != Sink(j) {
		t.Error("single-sink Multi should unwrap")
	}
	j2 := NewJournal(8)
	m := Multi(j, j2)
	m.Emit(Event{Type: TypeHeal, Shard: 0, Lane: Any})
	if j.LastSeq() != 1 || j2.LastSeq() != 1 {
		t.Errorf("fan-out missed a sink: %d, %d", j.LastSeq(), j2.LastSeq())
	}
	// Nil-safe package-level Emit.
	Emit(nil, Event{Type: TypeHeal})
	Emit(m, Event{Type: TypeHeal, Shard: 1, Lane: Any})
	if j.LastSeq() != 2 {
		t.Errorf("Emit helper did not deliver")
	}
}

// TestLogSink: events render as one JSON record each with the event
// vocabulary, at the per-type level.
func TestLogSink(t *testing.T) {
	var buf bytes.Buffer
	l := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s := NewLogSink(l)
	s.Emit(Event{Seq: 7, Type: TypeQuarantine, Shard: 2, Lane: Any, Reason: "tot", Value: 4096})
	s.Emit(Event{Seq: 8, Type: TypeSeedDraw, Shard: 0, Lane: Any, Value: 384})

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2", len(lines))
	}
	var rec map[string]any
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if rec["msg"] != string(TypeQuarantine) || rec["level"] != "WARN" {
		t.Errorf("quarantine record: %v", rec)
	}
	if rec["shard"] != float64(2) || rec["reason"] != "tot" {
		t.Errorf("quarantine attrs: %v", rec)
	}
	if json.Unmarshal(lines[1], &rec); rec["level"] != "DEBUG" {
		t.Errorf("seed-draw should log at DEBUG: %v", rec)
	}

	// An Info-level logger suppresses the chatty types entirely.
	buf.Reset()
	s = NewLogSink(slog.New(slog.NewJSONHandler(&buf, nil)))
	s.Emit(Event{Type: TypeSeedDraw, Shard: 0, Lane: Any})
	if buf.Len() != 0 {
		t.Errorf("seed-draw leaked through Info level: %s", buf.String())
	}
}

// TestLevelMapping pins the vocabulary-to-level table.
func TestLevelMapping(t *testing.T) {
	warn := []Type{TypeAlarm, TypeQuarantine, TypeStartupFail, TypeDRBGReseedFail, TypeDRBGFailClosed, TypeStarveAbort}
	for _, ty := range warn {
		if Level(ty) != slog.LevelWarn {
			t.Errorf("%s should be Warn", ty)
		}
	}
	debug := []Type{TypeSeedDraw, TypeDRBGReseed, TypeRequestShed}
	for _, ty := range debug {
		if Level(ty) != slog.LevelDebug {
			t.Errorf("%s should be Debug", ty)
		}
	}
	for _, ty := range []Type{TypeStartupPass, TypeRecalibrate, TypeHeal, TypeDRBGInstantiate, TypeDRBGDrain, TypeInjectionMarker} {
		if Level(ty) != slog.LevelInfo {
			t.Errorf("%s should be Info", ty)
		}
	}
}

// TestEventJSON pins the wire shape of /events entries.
func TestEventJSON(t *testing.T) {
	e := Event{Seq: 3, At: time.Unix(100, 0).UTC(), Type: TypeAlarm, Shard: 1, Lane: Any, Epoch: 2, Reason: "thermal-low", Value: 0.125, Detail: "variance"}
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"seq", "at", "type", "shard", "lane", "epoch", "reason", "value", "detail"} {
		if _, ok := m[k]; !ok {
			t.Errorf("missing JSON key %q in %s", k, b)
		}
	}
	// Empty payload fields are omitted to keep /events pages small.
	b, _ = json.Marshal(Event{Seq: 1, Type: TypeHeal, Shard: 0, Lane: Any})
	if bytes.Contains(b, []byte("reason")) || bytes.Contains(b, []byte("epoch")) {
		t.Errorf("zero payload fields not omitted: %s", b)
	}
}
