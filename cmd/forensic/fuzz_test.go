package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/obs"
)

// FuzzLoadEvents holds dump ingest to its contract: arbitrary bytes
// load as events or fail with an error, never a panic, and a dump that
// loads replays to the same incidents whether it is re-encoded as an
// /events page or as a bare event array. The checked-in corpus under
// testdata/fuzz adds an untimed, a truncated and a mistyped dump.
func FuzzLoadEvents(f *testing.F) {
	// A short dump keeps input minimization cheap: the supply-ripple
	// drill's two markers, then shard 0's alarm and quarantine.
	evs := supplyRippleDump()[2:6]
	page, _ := json.Marshal(obs.Page{LastSeq: 6, Events: evs})
	arr, _ := json.Marshal(evs[:3])
	for _, seed := range [][]byte{page, arr, []byte("not json"), []byte(" \n[]"), []byte("null")} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := loadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		page, err := json.Marshal(obs.Page{Events: evs})
		if err != nil {
			t.Fatalf("re-encoding %d loaded events as a page: %v", len(evs), err)
		}
		arr, err := json.Marshal(evs)
		if err != nil {
			t.Fatalf("re-encoding %d loaded events as an array: %v", len(evs), err)
		}
		var reports [2][]byte
		for i, dump := range [][]byte{page, arr} {
			got, err := loadEvents(bytes.NewReader(dump))
			if err != nil {
				t.Fatalf("re-encoded dump does not load: %v\n%s", err, dump)
			}
			if reports[i], err = json.Marshal(buildReport(got, 5*time.Second)); err != nil {
				t.Fatalf("encoding the report: %v", err)
			}
		}
		if !bytes.Equal(reports[0], reports[1]) {
			t.Fatalf("page and array forms replay differently:\npage:  %s\narray: %s", reports[0], reports[1])
		}
	})
}
