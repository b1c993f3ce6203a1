package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape maps each series of a Prometheus text exposition, written as
// trngd renders it (name plus its label set), to its value.
type scrape map[string]float64

// parseProm reads the sample lines of a Prometheus text exposition.
func parseProm(text string) (scrape, error) {
	s := scrape{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("prom: malformed sample %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: sample %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// delta returns s minus before, series by series.
func (s scrape) delta(before scrape) scrape {
	d := make(scrape, len(s))
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// histMean is a histogram's mean in seconds: sum over count of the
// series with the given rendered label set ("" for none).
func (s scrape) histMean(name, labels string) float64 {
	sel := ""
	if labels != "" {
		sel = "{" + labels + "}"
	}
	n := s[name+"_count"+sel]
	if n == 0 {
		return 0
	}
	return s[name+"_sum"+sel] / n
}

// bucket is one cumulative le-bucket of a histogram.
type bucket struct {
	le    float64
	count float64
}

// buckets collects the cumulative le-buckets of one histogram series
// (labels rendered without the le pair, "" for none), sorted by bound.
func (s scrape) buckets(name, labels string) []bucket {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	var out []bucket
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) || !strings.HasPrefix(k[len(prefix):], `le="`) {
			continue
		}
		raw := strings.TrimSuffix(k[len(prefix)+len(`le="`):], `"}`)
		le := math.Inf(1)
		if raw != "+Inf" {
			f, err := strconv.ParseFloat(raw, 64)
			if err != nil {
				continue
			}
			le = f
		}
		out = append(out, bucket{le, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// bucketQuantile estimates the q-quantile from cumulative buckets the
// way Prometheus's histogram_quantile does: linear interpolation inside
// the bucket holding rank q·total, from 0 for the first bucket; a rank
// in the +Inf bucket reports the largest finite bound. NaN when empty.
func bucketQuantile(q float64, b []bucket) float64 {
	v, _ := bucketLocate(q, b)
	return v
}

// bucketLocate returns the interpolated q-quantile and the lower edge
// of the bucket that holds it: the quantile is certainly no smaller
// than that edge.
func bucketLocate(q float64, b []bucket) (v, floor float64) {
	if len(b) == 0 || b[len(b)-1].count <= 0 {
		return math.NaN(), math.NaN()
	}
	rank := q * b[len(b)-1].count
	lo, below := 0.0, 0.0
	for _, x := range b {
		if x.count >= rank && x.count > below {
			if math.IsInf(x.le, 1) {
				return lo, lo
			}
			return lo + (x.le-lo)*(rank-below)/(x.count-below), lo
		}
		lo, below = x.le, x.count
	}
	return lo, lo
}
