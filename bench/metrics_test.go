package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// declared is the part of BENCHMARK.json the printed metrics must
// match.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// sameSet checks that the printed metrics are exactly the declared
// ones, with the declared units, in the declared order.
func sameSet(t *testing.T, kind string, printed []metric, names, units []string) {
	t.Helper()
	if len(printed) != len(names) {
		t.Errorf("%s: %d printed, %d declared", kind, len(printed), len(names))
	}
	for i := 0; i < len(printed) && i < len(names); i++ {
		if printed[i].name != names[i] || printed[i].unit != units[i] {
			t.Errorf("%s %d: printed %s (%s), declared %s (%s)", kind, i,
				printed[i].name, printed[i].unit, names[i], units[i])
		}
	}
}

func TestDeclaredMetricsPrinted(t *testing.T) {
	d := readDeclared(t)
	var names, units []string
	for _, m := range d.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	sameSet(t, "end_to_end", e2eMetrics(&e2eResult{}), names, units)

	names, units = nil, nil
	for _, m := range d.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	sameSet(t, "per_layer", layerMetrics(&e2eResult{}, &traced{}), names, units)

	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %s, defined %s", i, d.Workloads[i].Name, w.name)
		}
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	all := append(e2eMetrics(&e2eResult{}), layerMetrics(&e2eResult{}, &traced{})...)
	for _, m := range all {
		if !metricName.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q printed twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q", w.name)
		}
	}
}
