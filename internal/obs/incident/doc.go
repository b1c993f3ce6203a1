// Package incident folds the per-shard event stream of the obs
// journal into fleet-level INCIDENT objects: temporally-correlated
// groups of alarms with a measured blast radius, per-shard timelines,
// and derived detection (MTTD) and recovery (MTTR) times. It is the
// layer that turns N simultaneous quarantines on a shared supply rail
// from "N unrelated shard failures" into "one correlated fleet
// incident with blast radius N". It is also the one place that derives
// timings from events: the journal only records them.
//
// # Clustering rule
//
// The engine consumes events as an obs.Sink (normally wired into the
// same obs.Multi fan-out as the journal) and reacts only to the
// shard-lifecycle subset of the vocabulary: alarm, quarantine,
// startup-fail, live-watermark (the ALARM-CLASS events that drive
// clustering) plus injection-marker, recalibrate and heal (which
// annotate timelines). Every other event type returns before taking
// the engine lock, so the serving hot path pays one type switch.
//
// An alarm-class event on shard S is attached as follows, using the
// event's own timestamp (Event.At) so that offline replay of a journal
// dump reconstructs the identical incidents:
//
//  1. If S is already a member of an open incident, the event folds
//     into that incident REGARDLESS of the correlation window. A
//     persistent attack that keeps a shard alarming through failed
//     recalibrations is one long incident, not many.
//  2. Otherwise, if some open incident saw its last alarm-class event
//     within the correlation window of this one, S joins that incident
//     (newest incident wins when several qualify) and the incident's
//     blast radius grows.
//  3. Otherwise a new incident opens with S as its first member.
//
// Resolved incidents never accept events: a shard that heals and then
// alarms again starts a NEW incident, so a flapping shard yields one
// incident per quarantine/heal cycle, each with its own MTTR.
//
// # Classification and resolution
//
// An incident's class is "single-shard" while it holds one distinct
// shard and becomes "correlated" the moment a second shard joins —
// i.e. when two or more shards raise alarm-class events within one
// correlation window of each other. Blast radius is the count of
// distinct member shards. Totals by class follow the CURRENT class: a
// single-shard→correlated upgrade moves the incident between label
// values (the sum across classes is monotonic, the per-class split is
// a live reclassification).
//
// Each member shard carries a timeline of firsts: injection marker
// (when a drill preceded the alarm) → first alarm → quarantine →
// recalibrate → heal. The marker→first-alarm gap is the shard's
// detection time; the first one computed becomes the incident's MTTD.
// When every member shard has healed the incident resolves: MTTR is
// resolved-at minus opened-at. MTTD and MTTR are recorded into
// per-class loadstat histograms and the final blast radius into a
// small power-of-two-bucket histogram, all exposed via Stats for
// /metrics export.
//
// # Detection latency
//
// At the first quarantine in a shard's timeline, when that timeline
// consumed an injection marker, the engine records quarantine minus
// marker into a histogram keyed by the quarantine reason (the alarm
// class): the measured version of the paper's §V detection argument,
// exported as Stats.Detection. A later quarantine in the same
// timeline (a failed recalibration re-tripping the shard) adds
// nothing: one injected degradation is detected once.
//
// # The /incidents cursor contract
//
// Incident IDs are assigned monotonically from 1. Incidents(since)
// returns every OPEN incident (always, whatever the cursor — an open
// incident is live state, not history) plus the resolved incidents
// with ID > since retained in a bounded most-recent ring, in ID order,
// together with the last assigned ID. A reader pages forward exactly
// like /events: pass the returned last ID as the next cursor and
// resolved incidents are seen once each, while open incidents reappear
// until they resolve (their Resolved field discriminates).
//
// The engine is strictly passive: it observes emissions and never
// feeds back into generation, so enabling it cannot change any served
// byte — pinned bit-identical by the entropyd observability tests.
package incident
