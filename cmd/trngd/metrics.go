package main

import (
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/entropyd"
	"repro/internal/loadstat"
	"repro/internal/obs/incident"
)

// sample is one counter or gauge sample: its rendered label list
// (without braces, "" for none) and its value. Integers render %d and
// floats %g.
type sample struct {
	labels string
	value  any
}

// series is one histogram series: per-bucket (non-cumulative) counts
// for its le labels, the last of them "+Inf", and the observation sum.
type series struct {
	labels  string
	le      []string
	buckets []uint64
	sum     float64
}

// promWriter writes one exposition. Every family goes through family
// or histogram, so HELP and TYPE are formatted in one place.
type promWriter struct{ w io.Writer }

func (p promWriter) line(name, labels string, value any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(p.w, "%s%s %v\n", name, labels, value)
}

func (p promWriter) family(name, typ, help string, samples ...sample) {
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, s := range samples {
		p.line(name, s.labels, s.value)
	}
}

func (p promWriter) histogram(name, help string, ss ...series) {
	p.family(name, "histogram", help)
	for _, s := range ss {
		cum := uint64(0)
		for i, n := range s.buckets {
			cum += n
			p.line(name+"_bucket", strings.TrimPrefix(s.labels+",le="+strconv.Quote(s.le[i]), ","), cum)
		}
		p.line(name+"_sum", s.labels, s.sum)
		p.line(name+"_count", s.labels, cum)
	}
}

// lbl renders label pairs k1, v1, k2, v2, ... as a label list.
func lbl(kv ...string) string {
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, kv[i]+"="+strconv.Quote(kv[i+1]))
	}
	return strings.Join(pairs, ",")
}

// snapSeries downsamples a loadstat snapshot (nil renders the ladder
// at zero) to one series over le bounds in seconds.
func snapSeries(labels string, snap *loadstat.Snapshot, bounds []float64) series {
	if snap == nil {
		snap = loadstat.New().Snapshot()
	}
	s := series{labels: labels, sum: snap.Sum().Seconds()}
	below := uint64(0)
	for _, b := range bounds {
		n := snap.CountBelow(time.Duration(math.Round(b * 1e9)))
		s.le, s.buckets, below = append(s.le, strconv.FormatFloat(b, 'g', -1, 64)), append(s.buckets, n-below), n
	}
	s.le, s.buckets = append(s.le, "+Inf"), append(s.buckets, snap.Count()-below)
	return s
}

// when is v if ok, else nil: a dropped sample.
func when(ok bool, v any) any {
	if ok {
		return v
	}
	return nil
}

// classSeries is one series per alarm or incident class.
func classSeries(byClass map[string]*loadstat.Snapshot, classes []string, bounds []float64) []series {
	ss := make([]series, len(classes))
	for i, c := range classes {
		ss[i] = snapSeries(lbl("class", c), byClass[c], bounds)
	}
	return ss
}

// handleMetrics is GET /metrics (Prometheus text format 0.0.4). Each
// family is declared once, by one family or histogram call carrying
// its name, type, help and samples; internal/obs.LintProm holds the
// output to the format spec in tests and CI.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st := s.pool.Stats()
	up := time.Since(s.start).Seconds()
	served := s.served.Load()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	p := promWriter{w}
	p.family("trngd_build_info", "gauge", "Build identity (constant 1; the facts are in the labels).",
		sample{lbl("go_version", s.goVersion, "revision", s.revision), 1})
	p.family("trngd_uptime_seconds", "gauge", "Daemon uptime.", sample{value: up})
	p.family("trngd_requests_total", "counter", "/random requests received.", sample{value: s.requests.Load()})
	p.family("trngd_requests_rejected_total", "counter", "Requests rejected by the bounded queue.", sample{value: s.rejected.Load()})
	p.family("trngd_requests_starved_total", "counter", "Requests failed on pool starvation.", sample{value: s.starved.Load()})
	p.family("trngd_bytes_served_total", "counter", "Random bytes delivered.", sample{value: served})
	p.family("trngd_throughput_bytes_per_second", "gauge", "Mean delivery rate since start.",
		sample{value: float64(served) / math.Max(up, 1e-9)})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.family("trngd_goroutines", "gauge", "Live goroutines.", sample{value: runtime.NumGoroutine()})
	p.family("trngd_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.",
		sample{value: float64(ms.PauseTotalNs) / 1e9})
	p.family("trngd_gc_runs_total", "counter", "Completed GC cycles.", sample{value: ms.NumGC})
	p.family("trngd_heap_alloc_bytes", "gauge", "Live heap bytes.", sample{value: ms.HeapAlloc})
	p.family("trngd_heap_sys_bytes", "gauge", "Heap bytes obtained from the OS.", sample{value: ms.HeapSys})
	// /random service latency, downsampled from the loadstat histogram
	// to Prometheus cumulative le-buckets. The same histogram type backs
	// cmd/loadgen, so the in-process view and an external load run are
	// directly comparable.
	mode := s.mode()
	p.histogram("trngd_request_duration_seconds", "/random service latency.",
		snapSeries(lbl("mode", mode), s.lat.Snapshot(), latencyBounds))
	// The same latency split into phases: queue-wait (acquiring a queue
	// slot), lane-generate (pool/DRBG byte production) and
	// response-write (flushing to the client). Only requests that
	// entered the queue are phased, so the three series share a count.
	p.histogram("trngd_request_phase_duration_seconds", "/random service latency by request phase.",
		snapSeries(lbl("mode", mode, "phase", "queue-wait"), s.latQueue.Snapshot(), latencyBounds),
		snapSeries(lbl("mode", mode, "phase", "lane-generate"), s.latGen.Snapshot(), latencyBounds),
		snapSeries(lbl("mode", mode, "phase", "response-write"), s.latWrite.Snapshot(), latencyBounds))
	if j := s.cfg.journal; j != nil {
		p.family("trngd_journal_events_total", "counter", "Events recorded by the flight-recorder journal.", sample{value: j.LastSeq()})
		p.family("trngd_journal_capacity_events", "gauge", "Journal ring capacity (older events are overwritten).", sample{value: j.Capacity()})
		p.family("trngd_journal_dropped_total", "counter", "Journal events lost to ring overwrite before an /events reader saw them (sums the dropped counts of every page served).", sample{value: s.dropped.Load()})
	}
	// Fleet incident correlation: incidents opened by class, the open
	// set, resolved blast radii, MTTD/MTTR and the per-shard detection
	// latencies. Incident class series render even at zero so
	// dashboards and CI can assert their presence; a
	// single-shard→correlated upgrade moves one count between the class
	// labels (the sum stays monotonic).
	if eng := s.cfg.incidents; eng != nil {
		ist := eng.Stats()
		if lats := ist.Detection; len(lats) > 0 {
			p.histogram("trngd_shard_detection_latency_seconds", "Injection-marker to quarantine latency per alarm class.",
				classSeries(lats, slices.Sorted(maps.Keys(lats)), latencyBounds)...)
		}
		totals := make([]sample, len(incident.Classes))
		for i, c := range incident.Classes {
			totals[i] = sample{lbl("class", c), ist.Totals[c]}
		}
		p.family("trngd_incidents_total", "counter", "Incidents opened by the correlation engine, labeled by current class.", totals...)
		p.family("trngd_incidents_open", "gauge", "Currently open (unresolved) incidents.", sample{value: ist.Open})
		blast := series{buckets: ist.BlastBuckets, sum: ist.BlastSum}
		for _, b := range incident.BlastBounds {
			blast.le = append(blast.le, strconv.Itoa(b))
		}
		blast.le = append(blast.le, "+Inf")
		p.histogram("trngd_incident_blast_radius", "Distinct shards per resolved incident.", blast)
		p.histogram("trngd_incident_mttd_seconds", "Incident detection time: injection marker to first alarm, per class.",
			classSeries(ist.MTTD, incident.Classes, incidentBounds)...)
		p.histogram("trngd_incident_mttr_seconds", "Incident recovery time: opened to all member shards healed, per class.",
			classSeries(ist.MTTR, incident.Classes, incidentBounds)...)
	}
	p.family("trngd_shards_healthy", "gauge", "Healthy shard count.", sample{value: st.Healthy})
	// shard declares one per-shard family; a nil value drops a sample.
	shard := func(typ, name, help string, value func(sh entropyd.ShardStatus) any) {
		var ss []sample
		for _, sh := range st.Shards {
			if v := value(sh); v != nil {
				ss = append(ss, sample{lbl("shard", strconv.Itoa(sh.Index)), v})
			}
		}
		p.family(name, typ, help, ss...)
	}
	shard("gauge", "trngd_shard_state", "Shard state (0 startup, 1 healthy, 2 quarantined).", func(sh entropyd.ShardStatus) any { return map[string]int{"healthy": 1, "quarantined": 2}[sh.State] })
	shard("counter", "trngd_shard_bytes_total", "Gated bytes produced.", func(sh entropyd.ShardStatus) any { return sh.BytesOut })
	shard("counter", "trngd_shard_raw_bits_total", "Raw (das) bits consumed.", func(sh entropyd.ShardStatus) any { return sh.RawBits })
	shard("counter", "trngd_shard_rest_seconds_total", "Wall time the producer rested on a saturated buffer (full ring, or full, assessed and surveyed seed tap) or waiting for a survey slot.", func(sh entropyd.ShardStatus) any { return sh.RestSeconds })
	shard("counter", "trngd_shard_tot_alarms_total", "Total-failure test alarms.", func(sh entropyd.ShardStatus) any { return sh.TotAlarms })
	shard("counter", "trngd_shard_thermal_low_alarms_total", "Thermal monitor low-side alarms.", func(sh entropyd.ShardStatus) any { return sh.MonitorLow })
	shard("counter", "trngd_shard_thermal_high_alarms_total", "Thermal monitor high-side alarms.", func(sh entropyd.ShardStatus) any { return sh.MonitorHigh })
	shard("counter", "trngd_shard_startup_failures_total", "Startup test failures.", func(sh entropyd.ShardStatus) any { return sh.StartupFailures })
	shard("counter", "trngd_shard_quarantines_total", "Quarantine events.", func(sh entropyd.ShardStatus) any { return sh.Quarantines })
	shard("counter", "trngd_shard_drained_bytes_total", "Bytes discarded by quarantine drains.", func(sh entropyd.ShardStatus) any { return sh.DrainedBytes })
	shard("counter", "trngd_shard_assess_runs_total", "Completed SP 800-90B raw-bit assessments.", func(sh entropyd.ShardStatus) any { return sh.AssessRuns })
	shard("counter", "trngd_shard_assess_alarms_total", "Low-entropy quarantines raised by the assessment.", func(sh entropyd.ShardStatus) any { return sh.AssessAlarms })
	shard("gauge", "trngd_shard_assess_min_entropy", "Latest assessed suite min-entropy (bits per raw bit).", func(sh entropyd.ShardStatus) any { return when(sh.AssessRuns > 0, sh.AssessMinEntropy) })
	// The age gauge only makes sense for a serving shard: a quarantined
	// shard is not collecting toward its next assessment, so its "age"
	// would grow without bound and trip staleness alerts on a shard that
	// is already benched. The sample is dropped until the shard heals.
	shard("gauge", "trngd_shard_assess_age_seconds", "Wall-clock age of the latest assessment (healthy shards only; dropped while quarantined).", func(sh entropyd.ShardStatus) any {
		return when(sh.AssessRuns > 0 && sh.State == "healthy", sh.AssessAgeSeconds)
	})
	// Streaming surveillance: live sliding-window estimates, watermark
	// quarantines, and the measured per-raw-bit tracker cost.
	shard("counter", "trngd_shard_live_alarms_total", "Mid-window watermark quarantines raised by streaming surveillance.", func(sh entropyd.ShardStatus) any { return sh.LiveAlarms })
	var live []sample
	var cost []series
	for _, sh := range st.Shards {
		i := strconv.Itoa(sh.Index)
		if a := s.pool.Shard(sh.Index).LiveAssessment(); a != nil {
			for _, e := range a.Report.Estimates {
				live = append(live, sample{lbl("shard", i, "estimator", e.Name), e.MinEntropy})
			}
			live = append(live, sample{lbl("shard", i, "estimator", "suite"), a.Report.MinEntropy})
		}
		if snap := s.pool.Shard(sh.Index).StreamCost(); snap != nil && snap.Count() > 0 {
			cost = append(cost, snapSeries(lbl("shard", i), snap, streamCostBounds))
		}
	}
	p.family("trngd_shard_live_min_entropy", "gauge", "Live sliding-window min-entropy (bits per raw bit) per estimator; estimator=\"suite\" is the per-shard minimum.", live...)
	shard("gauge", "trngd_shard_live_age_seconds", "Wall-clock age of the live streaming report (healthy shards with a full window only).", func(sh entropyd.ShardStatus) any {
		return when(sh.LiveAgeSeconds >= 0 && sh.State == "healthy", sh.LiveAgeSeconds)
	})
	p.histogram("trngd_shard_stream_cost_seconds", "Streaming surveillance cost per raw bit (one sample per gated chunk).", cost...)
	if s.drbg == nil {
		return
	}
	d := s.drbg.Stats()
	p.family("trngd_drbg_generates_total", "counter", fmt.Sprintf("DRBG output blocks generated (%d bytes each).", d.BlockBytes), sample{value: d.Generates})
	p.family("trngd_drbg_reseeds_total", "counter", "Successful DRBG seeding events (instantiations included).", sample{value: d.Reseeds})
	p.family("trngd_drbg_reseed_failures_total", "counter", "Failed DRBG seeding events (lane failed closed for the turn).", sample{value: d.ReseedFailures})
	p.family("trngd_drbg_seed_draws_total", "counter", "Full-entropy conditioner blocks drawn from shard taps.", sample{value: d.SeedDraws})
	p.family("trngd_drbg_seed_starves_total", "counter", "Seed draws that timed out with no eligible shard.", sample{value: d.SeedStarves})
	var lanes []sample
	for _, l := range d.Lanes {
		if l.Instantiated {
			lanes = append(lanes, sample{lbl("lane", strconv.Itoa(l.Shard)), l.ReseedCounter})
		}
	}
	p.family("trngd_drbg_lane_reseed_counter", "gauge", "Generate calls since the lane's last seed (SP 800-90A reseed_counter).", lanes...)
}

// The le bounds, in seconds, of the duration histograms: request
// latency up to the -wait deadline region; incident MTTD/MTTR up to
// multi-minute recoveries (recalibration takes startup-test time); and
// the per-raw-bit streaming surveillance cost, three decades below.
var (
	latencyBounds    = []float64{1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10}
	incidentBounds   = []float64{0.1, 0.5, 1, 5, 15, 30, 60, 300, 900}
	streamCostBounds = []float64{1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4}
)
