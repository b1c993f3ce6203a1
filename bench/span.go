package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans caps the spans one traced window keeps in memory; later
// spans are counted, not stored.
const maxSpans = 1 << 20

// span is one timed call into a layer. Spans of one request share Req;
// background work (conditioner calls on lane workers, event emission)
// has Req 0. Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory while on.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span or request identifier.
func (t *tracer) id() int64 { return t.ids.Add(1) }

// record stores a finished span under a reserved id, when tracing is
// on.
func (t *tracer) record(id, parent, req int64, name string, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// snapshot returns the kept spans and the dropped count.
func (t *tracer) snapshot() ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), t.dropped
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes gives each span's self time: its duration minus the part
// of its interval that its children cover, overlapping children
// counted once.
func selfTimes(spans []span) map[int64]time.Duration {
	type iv struct{ lo, hi int64 }
	kids := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].lo < cs[j].lo })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.lo, reach), min(c.hi, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// printSelfTimes writes, per span name, the span count, total time and
// total self time.
func printSelfTimes(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += time.Duration(s.End - s.Start)
		a.self += self[s.ID]
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "span %-16s n=%-7d total=%-14v self=%v\n", n, a.n, a.total, a.self)
	}
}
