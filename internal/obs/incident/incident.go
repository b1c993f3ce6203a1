package incident

import (
	"sort"
	"sync"
	"time"

	"repro/internal/loadstat"
	"repro/internal/obs"
)

// Incident classes. The string values are wire vocabulary: /incidents
// JSON, the attack-matrix report and metric labels all use them.
const (
	// ClassSingleShard: every alarm-class event in the incident came
	// from one shard.
	ClassSingleShard = "single-shard"
	// ClassCorrelated: at least two distinct shards alarmed within one
	// correlation window of each other.
	ClassCorrelated = "correlated"
)

// Classes lists the classification vocabulary in render order, so
// exporters can emit every label value even at count zero.
var Classes = []string{ClassSingleShard, ClassCorrelated}

const (
	// DefaultWindow is the correlation window used when a caller
	// passes 0: alarms on distinct shards closer together than this
	// are one incident.
	DefaultWindow = 5 * time.Second
	// DefaultMaxRecent bounds the resolved-incident history ring.
	DefaultMaxRecent = 256
)

// BlastBounds are the inclusive upper bounds of the blast-radius
// histogram buckets; radii above the last bound land in the +Inf
// overflow bucket.
var BlastBounds = []int{1, 2, 4, 8, 16, 32}

// ShardTimeline is one member shard's milestones inside an incident.
// Only the FIRST occurrence of each milestone is stamped; Alarms
// counts every alarm-class event the shard contributed.
type ShardTimeline struct {
	Shard int `json:"shard"`
	// Marker is the injection-marker that preceded the first alarm,
	// when a drill announced the degradation it injected.
	Marker time.Time `json:"marker,omitzero"`
	// FirstAlarm is the first embedded-test alarm (alarm,
	// live-watermark or startup-fail event).
	FirstAlarm time.Time `json:"first_alarm,omitzero"`
	// AlarmReason is the alarm class of the first alarm.
	AlarmReason string    `json:"alarm_reason,omitempty"`
	Quarantine  time.Time `json:"quarantine,omitzero"`
	Recalibrate time.Time `json:"recalibrate,omitzero"`
	Heal        time.Time `json:"heal,omitzero"`
	// Alarms counts the shard's alarm-class events in this incident.
	Alarms int `json:"alarms"`
	// Healed reports whether the shard's latest quarantine in this
	// incident has healed.
	Healed bool `json:"healed"`
	// DetectSeconds is the marker→first-alarm-class-event gap, when a
	// marker was pending for the shard.
	DetectSeconds float64 `json:"detect_seconds,omitempty"`
}

// Incident is one correlated group of shard alarms.
type Incident struct {
	// ID is the monotonic incident identifier, 1 for the first.
	ID uint64 `json:"id"`
	// Class is ClassSingleShard or ClassCorrelated.
	Class string `json:"class"`
	// OpenedAt is the timestamp of the opening alarm-class event.
	OpenedAt time.Time `json:"opened_at"`
	// LastAlarmAt is the newest alarm-class event folded in — the
	// reference point for the correlation window.
	LastAlarmAt time.Time `json:"last_alarm_at"`
	ResolvedAt  time.Time `json:"resolved_at,omitzero"`
	Resolved    bool      `json:"resolved"`
	// BlastRadius is the count of distinct member shards.
	BlastRadius int `json:"blast_radius"`
	// Events counts every journal event folded into the incident.
	Events int `json:"events"`
	// Shards holds the per-shard timelines in join order.
	Shards []ShardTimeline `json:"shards"`
	// MTTDSeconds is the incident's detection time: the first
	// marker→alarm gap computed among member shards (0 when no drill
	// marker preceded the incident).
	MTTDSeconds float64 `json:"mttd_seconds,omitempty"`
	// MTTRSeconds is resolved-at minus opened-at, set at resolution.
	MTTRSeconds float64 `json:"mttr_seconds,omitempty"`
}

func (in Incident) clone() Incident {
	out := in
	out.Shards = append([]ShardTimeline(nil), in.Shards...)
	return out
}

func (in *Incident) timeline(shard int) *ShardTimeline {
	for i := range in.Shards {
		if in.Shards[i].Shard == shard {
			return &in.Shards[i]
		}
	}
	return nil
}

// Engine is the streaming correlation engine. It implements obs.Sink
// and is safe for any number of concurrent emitters and readers. All
// temporal decisions use the event's own At timestamp, never the wall
// clock, so replaying a journal dump reproduces identical incidents.
type Engine struct {
	window    time.Duration
	maxRecent int

	mu      sync.Mutex
	lastID  uint64
	open    []*Incident       // open incidents in ID order
	members map[int]*Incident // shard -> its open incident
	markers map[int]time.Time // shard -> latest unconsumed marker
	recent  []Incident        // resolved ring, oldest first
	totals  map[string]uint64 // current class -> incidents opened
	mttr    map[string]*loadstat.Histogram
	mttd    map[string]*loadstat.Histogram
	detect  map[string]*loadstat.Histogram // quarantine reason -> marker→quarantine
	blastN  []uint64                       // per BlastBounds bucket + overflow, resolved only
	blastC  uint64
	blastS  uint64 // sum of resolved radii
}

// New builds an engine with the given correlation window (0 means
// DefaultWindow) and the default resolved-history bound.
func New(window time.Duration) *Engine {
	if window <= 0 {
		window = DefaultWindow
	}
	return &Engine{
		window:    window,
		maxRecent: DefaultMaxRecent,
		members:   make(map[int]*Incident),
		markers:   make(map[int]time.Time),
		totals:    map[string]uint64{ClassSingleShard: 0, ClassCorrelated: 0},
		mttr:      make(map[string]*loadstat.Histogram),
		mttd:      make(map[string]*loadstat.Histogram),
		detect:    make(map[string]*loadstat.Histogram),
		blastN:    make([]uint64, len(BlastBounds)+1),
	}
}

// Window returns the correlation window.
func (e *Engine) Window() time.Duration { return e.window }

// Emit consumes one journal event. Event types outside the shard
// lifecycle return before the engine lock is touched.
func (e *Engine) Emit(ev obs.Event) {
	switch ev.Type {
	case obs.TypeAlarm, obs.TypeQuarantine, obs.TypeStartupFail,
		obs.TypeLiveWatermark, obs.TypeInjectionMarker,
		obs.TypeRecalibrate, obs.TypeHeal:
	default:
		return
	}
	if ev.Shard < 0 {
		return
	}
	if ev.At.IsZero() {
		ev.At = time.Now()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch ev.Type {
	case obs.TypeInjectionMarker:
		e.markers[ev.Shard] = ev.At
		if inc := e.members[ev.Shard]; inc != nil {
			inc.Events++
		}
	case obs.TypeRecalibrate:
		if inc := e.members[ev.Shard]; inc != nil {
			tl := inc.timeline(ev.Shard)
			if tl.Recalibrate.IsZero() {
				tl.Recalibrate = ev.At
			}
			inc.Events++
		}
	case obs.TypeHeal:
		inc := e.members[ev.Shard]
		if inc == nil {
			return
		}
		tl := inc.timeline(ev.Shard)
		if tl.Heal.IsZero() {
			tl.Heal = ev.At
		}
		tl.Healed = true
		inc.Events++
		e.maybeResolve(inc, ev.At)
	default:
		e.alarm(ev)
	}
}

// alarm attaches one alarm-class event per the clustering rule.
func (e *Engine) alarm(ev obs.Event) {
	inc := e.members[ev.Shard]
	if inc == nil {
		inc = e.match(ev.At)
		if inc == nil {
			e.lastID++
			inc = &Incident{
				ID:       e.lastID,
				Class:    ClassSingleShard,
				OpenedAt: ev.At,
			}
			e.open = append(e.open, inc)
			e.totals[ClassSingleShard]++
		}
		inc.Shards = append(inc.Shards, ShardTimeline{Shard: ev.Shard})
		e.members[ev.Shard] = inc
		inc.BlastRadius = len(inc.Shards)
		if inc.BlastRadius >= 2 && inc.Class != ClassCorrelated {
			e.totals[inc.Class]--
			inc.Class = ClassCorrelated
			e.totals[ClassCorrelated]++
		}
	}
	tl := inc.timeline(ev.Shard)
	firstQuarantine := false
	if ev.Type == obs.TypeQuarantine {
		if firstQuarantine = tl.Quarantine.IsZero(); firstQuarantine {
			tl.Quarantine = ev.At
		}
	} else {
		if tl.FirstAlarm.IsZero() {
			tl.FirstAlarm = ev.At
			tl.AlarmReason = ev.Reason
		}
	}
	tl.Alarms++
	if tl.Healed {
		// The shard re-alarmed while siblings were still down: the
		// open incident continues, the heal milestone reopens.
		tl.Healed = false
		tl.Heal = time.Time{}
	}
	if tl.DetectSeconds == 0 {
		if m, ok := e.markers[ev.Shard]; ok && !ev.At.Before(m) {
			delete(e.markers, ev.Shard)
			if tl.Marker.IsZero() {
				tl.Marker = m
			}
			tl.DetectSeconds = ev.At.Sub(m).Seconds()
			if inc.MTTDSeconds == 0 {
				inc.MTTDSeconds = tl.DetectSeconds
			}
		}
	}
	if firstQuarantine && !tl.Marker.IsZero() {
		record(e.detect, ev.Reason, ev.At.Sub(tl.Marker))
	}
	inc.LastAlarmAt = ev.At
	inc.Events++
}

// match returns the newest open incident whose last alarm activity is
// within the correlation window of at, or nil.
func (e *Engine) match(at time.Time) *Incident {
	for i := len(e.open) - 1; i >= 0; i-- {
		d := at.Sub(e.open[i].LastAlarmAt)
		if d < 0 {
			d = -d
		}
		if d <= e.window {
			return e.open[i]
		}
	}
	return nil
}

// maybeResolve closes the incident once every member shard healed.
func (e *Engine) maybeResolve(inc *Incident, at time.Time) {
	for i := range inc.Shards {
		if !inc.Shards[i].Healed {
			return
		}
	}
	inc.Resolved = true
	inc.ResolvedAt = at
	mttr := at.Sub(inc.OpenedAt)
	inc.MTTRSeconds = mttr.Seconds()
	record(e.mttr, inc.Class, mttr)
	if inc.MTTDSeconds > 0 {
		record(e.mttd, inc.Class, time.Duration(inc.MTTDSeconds*float64(time.Second)))
	}
	idx := len(BlastBounds)
	for i, b := range BlastBounds {
		if inc.BlastRadius <= b {
			idx = i
			break
		}
	}
	e.blastN[idx]++
	e.blastC++
	e.blastS += uint64(inc.BlastRadius)
	for i := range inc.Shards {
		delete(e.members, inc.Shards[i].Shard)
	}
	for i, o := range e.open {
		if o == inc {
			e.open = append(e.open[:i], e.open[i+1:]...)
			break
		}
	}
	e.recent = append(e.recent, inc.clone())
	if len(e.recent) > e.maxRecent {
		e.recent = e.recent[len(e.recent)-e.maxRecent:]
	}
}

// record adds d to the class histogram of m, creating it on first use.
func record(m map[string]*loadstat.Histogram, class string, d time.Duration) {
	h := m[class]
	if h == nil {
		h = loadstat.New()
		m[class] = h
	}
	h.Record(d)
}

// Incidents returns every open incident plus the retained resolved
// incidents with ID > since, in ID order, together with the last
// assigned incident ID (the caller's next cursor). Open incidents are
// always returned — they are live state, not history.
func (e *Engine) Incidents(since uint64) ([]Incident, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Incident, 0, len(e.open)+len(e.recent))
	for _, r := range e.recent {
		if r.ID > since {
			out = append(out, r.clone())
		}
	}
	for _, o := range e.open {
		out = append(out, o.clone())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out, e.lastID
}

// Stats is a point-in-time summary of the engine for metric export.
type Stats struct {
	// Open is the number of open incidents; OpenByClass splits it.
	Open        int
	OpenByClass map[string]int
	// Totals counts incidents ever opened, by CURRENT class: an
	// upgrade moves one count from single-shard to correlated, so the
	// per-class split is live but the sum is monotonic.
	Totals map[string]uint64
	// MTTR / MTTD are per-class histograms over resolved incidents.
	MTTR map[string]*loadstat.Snapshot
	MTTD map[string]*loadstat.Snapshot
	// Detection holds the per-shard detection latencies: injection
	// marker to the shard's first quarantine in an incident, keyed by
	// the quarantine reason (the alarm class). Only reasons that
	// closed at least one marker → quarantine gap appear.
	Detection map[string]*loadstat.Snapshot
	// BlastBuckets holds per-bucket (non-cumulative) counts of
	// resolved incidents' final blast radii, one per BlastBounds entry
	// plus the +Inf overflow; BlastSum is the radii sum.
	BlastBuckets []uint64
	BlastCount   uint64
	BlastSum     float64
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{
		Open:         len(e.open),
		OpenByClass:  map[string]int{ClassSingleShard: 0, ClassCorrelated: 0},
		Totals:       make(map[string]uint64, len(e.totals)),
		MTTR:         snapshots(e.mttr),
		MTTD:         snapshots(e.mttd),
		Detection:    snapshots(e.detect),
		BlastBuckets: append([]uint64(nil), e.blastN...),
		BlastCount:   e.blastC,
		BlastSum:     float64(e.blastS),
	}
	for _, o := range e.open {
		st.OpenByClass[o.Class]++
	}
	for c, n := range e.totals {
		st.Totals[c] = n
	}
	return st
}

// snapshots snapshots every class histogram of m.
func snapshots(m map[string]*loadstat.Histogram) map[string]*loadstat.Snapshot {
	out := make(map[string]*loadstat.Snapshot, len(m))
	for c, h := range m {
		out[c] = h.Snapshot()
	}
	return out
}
