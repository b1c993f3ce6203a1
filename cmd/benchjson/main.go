// Command benchjson runs a Go benchmark selection and writes the
// results as machine-readable JSON — the perf-trajectory artifact the
// CI benchmark step records so later perf PRs can diff throughput
// numbers instead of eyeballing log output.
//
// It shells out to `go test -run ^$ -bench <re> -benchtime <t>` for
// the requested packages, parses the standard benchmark output lines
// (name, iterations, ns/op, optional MB/s), and emits one JSON
// document. bytes_per_sec comes from a -bytes bytes-per-op declaration
// when one covers the benchmark (exact — Go's MB/s column carries only
// two decimals, which quantizes slow benchmarks to 10 kB/s steps and
// underflows entirely for e.g. BenchmarkLeapfrogBit at calibrated
// physics, one output byte per op), else from the MB/s column.
//
// Usage:
//
//	benchjson [-bench RE] [-benchtime T] [-count N]
//	          [-pkg P1,P2] [-bytes name=B,...] [-out FILE]
//
// Example (the PR-3 trajectory file):
//
//	benchjson -bench 'BenchmarkLeapfrogBit|BenchmarkPoolThroughput' \
//	          -benchtime 3x -pkg .,./internal/entropyd \
//	          -bytes 'BenchmarkLeapfrogBit=1,BenchmarkPoolThroughput=32768' \
//	          -out BENCH_pr3.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one parsed benchmark line.
type Result struct {
	// Name is the benchmark name with the -cpus suffix stripped
	// (e.g. "BenchmarkLeapfrogBit/leapfrog").
	Name string `json:"name"`
	// Package the benchmark ran in.
	Package string `json:"package"`
	// Iterations is b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerSec is the throughput: derived exactly as
	// bytesPerOp·10⁹/NsPerOp when a -bytes declaration covers the
	// benchmark (preferred — the MB/s column only carries two
	// decimals, which quantizes slow benchmarks to 10 kB/s steps),
	// otherwise MB/s·10⁶ from the reported column; 0 when neither is
	// available.
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// Doc is the emitted JSON document. It deliberately carries no
// generation timestamp: the file is committed, and timestamps churn
// VCS diffs.
type Doc struct {
	GoVersion string   `json:"go_version"`
	Bench     string   `json:"bench"`
	BenchTime string   `json:"benchtime"`
	Results   []Result `json:"results"`
	Elapsed   float64  `json:"elapsed_seconds"`
}

// bytesPerOp resolves a -bytes declaration for a benchmark: an exact
// name match first, then the parent benchmark of a sub-benchmark name
// (so `-bytes BenchmarkPoolThroughput=32768` covers every
// /shards=N variant).
func bytesPerOp(perOp map[string]float64, name string) (float64, bool) {
	if b, ok := perOp[name]; ok {
		return b, true
	}
	if parent, _, ok := strings.Cut(name, "/"); ok {
		if b, ok := perOp[parent]; ok {
			return b, true
		}
	}
	return 0, false
}

// benchLine matches `BenchmarkName-8  123  456.7 ns/op  8.90 MB/s`.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+(\d+)\s+([0-9.e+]+) ns/op(?:\s+([0-9.e+]+) MB/s)?`)

// parseLine parses one line of `go test -bench` output run in pkg. It
// reports false for lines that are not benchmark results and for
// result lines whose iteration count or ns/op does not parse or is not
// positive, so a malformed number is never recorded as a measurement.
func parseLine(line, pkg string, perOp map[string]float64) (Result, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil || iters <= 0 {
		return Result{}, false
	}
	ns, err := strconv.ParseFloat(m[3], 64)
	if err != nil || ns <= 0 {
		return Result{}, false
	}
	r := Result{Name: m[1], Package: pkg, Iterations: iters, NsPerOp: ns}
	if b, ok := bytesPerOp(perOp, r.Name); ok {
		r.BytesPerSec = b * 1e9 / ns
	} else if m[4] != "" {
		if mbs, err := strconv.ParseFloat(m[4], 64); err == nil && mbs > 0 {
			r.BytesPerSec = mbs * 1e6
		}
	}
	return r, true
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		bench     = flag.String("bench", ".", "benchmark selection regexp (forwarded to go test -bench)")
		benchtime = flag.String("benchtime", "1x", "benchmark time per case (forwarded to go test -benchtime)")
		count     = flag.Int("count", 1, "repetitions per benchmark (forwarded to go test -count)")
		pkgs      = flag.String("pkg", ".", "comma-separated package list to run")
		bytesFlag = flag.String("bytes", "", "comma-separated name=bytesPerOp declarations for benchmarks whose MB/s column underflows")
		out       = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	perOp := map[string]float64{}
	if *bytesFlag != "" {
		for _, kv := range strings.Split(*bytesFlag, ",") {
			name, val, ok := strings.Cut(kv, "=")
			if !ok {
				log.Fatalf("malformed -bytes entry %q (want name=bytes)", kv)
			}
			b, err := strconv.ParseFloat(val, 64)
			if err != nil || b <= 0 {
				log.Fatalf("malformed -bytes value %q", kv)
			}
			perOp[name] = b
		}
	}

	doc := Doc{GoVersion: runtime.Version(), Bench: *bench, BenchTime: *benchtime}
	start := time.Now()
	for _, pkg := range strings.Split(*pkgs, ",") {
		pkg = strings.TrimSpace(pkg)
		if pkg == "" {
			continue
		}
		args := []string{"test", "-run", "^$", "-bench", *bench,
			"-benchtime", *benchtime, "-count", strconv.Itoa(*count), pkg}
		cmd := exec.Command("go", args...)
		var buf bytes.Buffer
		cmd.Stdout = &buf
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			log.Fatalf("go %s: %v", strings.Join(args, " "), err)
		}
		sc := bufio.NewScanner(&buf)
		for sc.Scan() {
			if r, ok := parseLine(sc.Text(), pkg, perOp); ok {
				doc.Results = append(doc.Results, r)
			}
		}
	}
	doc.Elapsed = time.Since(start).Seconds()
	if len(doc.Results) == 0 {
		log.Fatalf("no benchmark lines matched %q in %s", *bench, *pkgs)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d results to %s\n", len(doc.Results), *out)
}
