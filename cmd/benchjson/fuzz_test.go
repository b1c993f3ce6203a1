package main

import (
	"math"
	"testing"
)

// FuzzBenchLine: parseLine never panics, and every line it accepts
// carries a finite, positive ns/op and a positive iteration count.
func FuzzBenchLine(f *testing.F) {
	for _, line := range []string{
		"BenchmarkLeapfrogBit/leapfrog-2   \t  100\t  12345 ns/op",
		"BenchmarkPoolThroughput/shards=4-2 10 2.5e+06 ns/op 13.11 MB/s",
		"BenchmarkX-8 10 1.2.3 ns/op",
		"BenchmarkX 99999999999999999999 1 ns/op",
		"BenchmarkX 1 1e999 ns/op",
		"BenchmarkX 0 5 ns/op",
		"PASS",
	} {
		f.Add(line)
	}
	perOp := map[string]float64{"BenchmarkLeapfrogBit": 1}
	f.Fuzz(func(t *testing.T, line string) {
		r, ok := parseLine(line, "./pkg", perOp)
		if !ok {
			return
		}
		if !(r.NsPerOp > 0) || math.IsInf(r.NsPerOp, 0) {
			t.Fatalf("accepted %q with ns/op %v", line, r.NsPerOp)
		}
		if r.Iterations <= 0 {
			t.Fatalf("accepted %q with %d iterations", line, r.Iterations)
		}
	})
}
