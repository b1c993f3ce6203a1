package main

import (
	"testing"
	"time"
)

// TestSelfTimes checks self time on a hand-built tree: a request with
// two overlapping children, one child running past its parent's end,
// and a grandchild.
//
//	request 1  [0, 100)
//	  gen 2    [10, 40)   with child 4 [20, 30)
//	  gen 3    [30, 60)   overlaps 2 by 10
//	  late 5   [90, 120)  clipped to [90, 100)
//	cond 6     [200, 250) background, no parent
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Req: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "gen", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "gen", Start: 30, End: 60},
		{ID: 4, Parent: 2, Req: 1, Name: "inner", Start: 20, End: 30},
		{ID: 5, Parent: 1, Req: 1, Name: "late", Start: 90, End: 120},
		{ID: 6, Name: "cond", Start: 200, End: 250},
	}
	want := map[int64]time.Duration{
		1: 100 - 50 - 10, // children cover [10, 60) and [90, 100)
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 30,
		6: 50,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %v, want %v", id, got[id], w)
		}
	}
}

func TestTracerOff(t *testing.T) {
	tr := newTracer()
	now := time.Now()
	tr.record(tr.id(), 0, 0, "x", now, now)
	tr.on.Store(true)
	tr.record(tr.id(), 0, 0, "y", now, now.Add(time.Microsecond))
	spans, dropped := tr.snapshot()
	if len(spans) != 1 || spans[0].Name != "y" || dropped != 0 {
		t.Fatalf("spans %+v dropped %d, want only y", spans, dropped)
	}
}
