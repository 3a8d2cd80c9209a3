package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// sameNames fails on a name in one set and not the other.
func sameNames(t *testing.T, what string, emitted, declaredNames []string) {
	t.Helper()
	sort.Strings(emitted)
	sort.Strings(declaredNames)
	in := func(set []string, s string) bool {
		i := sort.SearchStrings(set, s)
		return i < len(set) && set[i] == s
	}
	for _, n := range emitted {
		if !nameRE.MatchString(n) {
			t.Errorf("%s: name %q is outside [A-Za-z0-9_.-]", what, n)
		}
		if !in(declaredNames, n) {
			t.Errorf("%s: %q is emitted but not declared in BENCHMARK.json", what, n)
		}
	}
	for _, n := range declaredNames {
		if !in(emitted, n) {
			t.Errorf("%s: %q is declared in BENCHMARK.json but not emitted", what, n)
		}
	}
}

// TestQuickSmoke runs every workload at 1/50 scale with both passes: all
// correctness checks pass, and the workload and metric names (and units)
// the program emits are exactly those BENCHMARK.json declares.
func TestQuickSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	runs, err := runQuick(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}

	var ran, want []string
	for _, r := range runs {
		ran = append(ran, r.workload)
	}
	whys := map[string]string{}
	for _, w := range b.Workloads {
		want = append(want, w.Name)
		whys[w.Name] = w.Why
	}
	sameNames(t, "workloads", ran, want)
	for i := range workloads {
		if w := &workloads[i]; whys[w.name] != w.why {
			t.Errorf("workload %s: why differs between workloads.go and BENCHMARK.json", w.name)
		}
	}

	check := func(pass string, got map[string]metric, decl []declared, defs []metricDef) {
		units := map[string]declared{}
		var names []string
		for _, d := range decl {
			names = append(names, d.Name)
			units[d.Name] = d
		}
		var emitted []string
		for name, m := range got {
			emitted = append(emitted, name)
			if d, ok := units[name]; ok && d.Unit != m.Unit {
				t.Errorf("%s %s: emitted unit %q, BENCHMARK.json says %q", pass, name, m.Unit, d.Unit)
			}
		}
		sameNames(t, pass, emitted, names)
		for _, def := range defs {
			d := units[def.name]
			if d.Better != def.better {
				t.Errorf("%s %s: better %q in metrics.go, %q in BENCHMARK.json", pass, def.name, def.better, d.Better)
			}
			if d.Bound != nil && *d.Bound != def.bound {
				t.Errorf("%s %s: bound %g in metrics.go, %g in BENCHMARK.json", pass, def.name, def.bound, *d.Bound)
			}
		}
	}
	for _, r := range runs {
		if r.endToEnd.Failed != 0 || r.perLayer.Failed != 0 {
			t.Errorf("%s: %d + %d operations failed", r.workload, r.endToEnd.Failed, r.perLayer.Failed)
		}
		check(r.workload+" end_to_end", r.endToEnd.Metrics, b.EndToEnd, endToEnd)
		check(r.workload+" per_layer", r.perLayer.Metrics, b.PerLayer, perLayer)
		for name, m := range r.endToEnd.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", r.workload, name)
			}
		}
	}
}

// TestBenchmarkJSONContract checks the limits the driver refuses a file for.
func TestBenchmarkJSONContract(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	// 4 + 22 x workloads runs must fit the driver's 3420 s with room for
	// set-up children, the last repetition's overrun and two builds.
	runs := 4 + 22*len(b.Workloads)
	if budget := runs * (b.RunSeconds + 8); budget > 3000 {
		t.Errorf("%d runs x (%d + 8) s = %d s leaves no room under the 3420 s cap", runs, b.RunSeconds, budget)
	}
	for _, w := range b.Workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	var hasSetup bool
	for _, m := range b.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound missing or outside (0, 0.25]", m.Name)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error(`end_to_end lacks {"name": "setup_s", "unit": "s", "better": "lower"}`)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(append([]declared(nil), b.EndToEnd...), b.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is not 1-16 of [A-Za-z0-9_/%%.-]", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}
