// Command forensic is the post-mortem incident reconstructor: it
// replays a flight-recorder event stream — a saved /events JSON dump
// or a live trngd endpoint — through the same correlation engine the
// daemon runs (internal/obs/incident) and prints the incidents it
// finds, with classification, blast radius, per-shard timelines and
// MTTD/MTTR.
//
// Because the engine keys every temporal decision off the events' own
// timestamps, replaying a dump offline reconstructs exactly the
// incidents the live daemon would have reported with the same
// correlation window — an operator can re-run an outage with a
// different -window to test a clustering hypothesis.
//
// Usage:
//
//	forensic -in events.json            # a saved /events page or bare event array
//	forensic -url http://host:8080     # page a live /events endpoint
//	forensic -in dump.json -window 30s -json
//
// The input accepts either the /events response shape
// ({"events": [...]}) or a bare JSON array of events. Output is a
// human-readable report by default, or the full incident objects as
// JSON with -json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/incident"
)

// loadEvents decodes a dump that is either an /events page object or a
// bare JSON array of events, every one of them timestamped.
func loadEvents(r io.Reader) ([]obs.Event, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimLeftFunc(string(data), func(r rune) bool {
		return r == ' ' || r == '\t' || r == '\n' || r == '\r'
	})
	var evs []obs.Event
	if strings.HasPrefix(trimmed, "[") {
		if err := json.Unmarshal(data, &evs); err != nil {
			return nil, fmt.Errorf("parsing event array: %w", err)
		}
	} else {
		var page obs.Page
		if err := json.Unmarshal(data, &page); err != nil {
			return nil, fmt.Errorf("parsing /events page: %w", err)
		}
		evs = page.Events
	}
	// The engine stamps an untimed event with the wall clock, which
	// would make the replay depend on when it runs.
	for _, e := range evs {
		if e.At.IsZero() {
			return nil, fmt.Errorf("event seq %d has no timestamp", e.Seq)
		}
	}
	return evs, nil
}

// fetchEvents pages a live /events endpoint from cursor 0 until the
// journal has no more history for us.
func fetchEvents(base string) ([]obs.Event, error) {
	base = strings.TrimRight(base, "/")
	var all []obs.Event
	var since uint64
	for {
		resp, err := http.Get(fmt.Sprintf("%s/events?since=%d", base, since))
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			return nil, fmt.Errorf("GET /events: %s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		var page obs.Page
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		all = append(all, page.Events...)
		if len(page.Events) == 0 || page.LastSeq <= since {
			return all, nil
		}
		since = page.LastSeq
	}
}

// replay feeds the events through a fresh correlation engine in
// sequence order and returns the reconstructed incidents.
func replay(events []obs.Event, window time.Duration) ([]incident.Incident, incident.Stats) {
	sorted := append([]obs.Event(nil), events...)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].Seq < sorted[k].Seq })
	eng := incident.New(window)
	for _, e := range sorted {
		eng.Emit(e)
	}
	incs, _ := eng.Incidents(0)
	return incs, eng.Stats()
}

// report is the -json output shape.
type report struct {
	WindowSec float64             `json:"window_seconds"`
	Events    int                 `json:"events"`
	Incidents []incident.Incident `json:"incidents"`
	ByClass   map[string]int      `json:"by_class"`
	Open      int                 `json:"open"`
}

func buildReport(events []obs.Event, window time.Duration) report {
	incs, _ := replay(events, window)
	rep := report{
		WindowSec: window.Seconds(),
		Events:    len(events),
		Incidents: incs,
		ByClass:   map[string]int{},
		Open:      0,
	}
	for _, c := range incident.Classes {
		rep.ByClass[c] = 0
	}
	for _, in := range incs {
		rep.ByClass[in.Class]++
		if !in.Resolved {
			rep.Open++
		}
	}
	return rep
}

// offset renders a timeline milestone as a +offset from the incident
// opening (negative for a marker injected before the first alarm).
func offset(t0, t time.Time) string {
	if t.IsZero() {
		return "-"
	}
	return fmt.Sprintf("%+.3fs", t.Sub(t0).Seconds())
}

// renderHuman prints the operator-facing report.
func renderHuman(w io.Writer, rep report) {
	fmt.Fprintf(w, "replayed %d events through a %gs correlation window: %d incident(s), %d open\n",
		rep.Events, rep.WindowSec, len(rep.Incidents), rep.Open)
	for _, c := range incident.Classes {
		fmt.Fprintf(w, "  %-12s %d\n", c+":", rep.ByClass[c])
	}
	for _, in := range rep.Incidents {
		state := "OPEN"
		if in.Resolved {
			state = fmt.Sprintf("resolved (mttr %.3fs)", in.MTTRSeconds)
		}
		fmt.Fprintf(w, "\nincident #%d  %s  blast=%d  opened %s  %s\n",
			in.ID, in.Class, in.BlastRadius, in.OpenedAt.Format(time.RFC3339), state)
		if in.MTTDSeconds > 0 {
			fmt.Fprintf(w, "  detected %.3fs after injection\n", in.MTTDSeconds)
		}
		for _, tl := range in.Shards {
			fmt.Fprintf(w, "  shard %d: marker %s  alarm %s (%s)  quarantine %s  recalibrate %s  heal %s  [%d alarm events]\n",
				tl.Shard,
				offset(in.OpenedAt, tl.Marker),
				offset(in.OpenedAt, tl.FirstAlarm), orDash(tl.AlarmReason),
				offset(in.OpenedAt, tl.Quarantine),
				offset(in.OpenedAt, tl.Recalibrate),
				offset(in.OpenedAt, tl.Heal),
				tl.Alarms)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func main() {
	var (
		in      = flag.String("in", "", "events dump to replay: an /events JSON page or a bare event array (\"-\" for stdin)")
		url     = flag.String("url", "", "live trngd base URL to page /events from (alternative to -in)")
		window  = flag.Duration("window", incident.DefaultWindow, "cross-shard alarm correlation window")
		jsonOut = flag.Bool("json", false, "emit the report as JSON")
	)
	flag.Parse()
	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "forensic: %v\n", err)
		os.Exit(1)
	}
	if (*in == "") == (*url == "") {
		fatal(fmt.Errorf("exactly one of -in or -url is required"))
	}
	if *window <= 0 {
		fatal(fmt.Errorf("-window must be > 0"))
	}
	var events []obs.Event
	var err error
	switch {
	case *url != "":
		events, err = fetchEvents(*url)
	case *in == "-":
		events, err = loadEvents(os.Stdin)
	default:
		f, ferr := os.Open(*in)
		if ferr != nil {
			fatal(ferr)
		}
		events, err = loadEvents(f)
		f.Close()
	}
	if err != nil {
		fatal(err)
	}
	rep := buildReport(events, *window)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}
	renderHuman(os.Stdout, rep)
}
