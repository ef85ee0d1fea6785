package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/kv"
)

// tiny sizes every workload down to a fraction of a second.
var tiny = sizes{
	setups: 2, refOps: 40, rung: 40 * time.Millisecond,
	sorGrid: 32, sorSweeps: 3, minEpisodes: 2, probe: 2 * time.Millisecond,
}

func tinyOptions(t *testing.T, traced bool) options {
	return options{seed: 3, measure: 200 * time.Millisecond, traced: traced, out: t.TempDir(), sz: tiny, refSum: simReferenceSum}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestNamesMatchBenchmarkJSON checks every workload and metric name
// and unit, and that BENCHMARK.json declares exactly what the
// benchmark emits.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: bad unit %q", name, unit)
		}
	}
	var code, declared []string
	for _, w := range workloads {
		check(w.name, "")
		code = append(code, w.name)
	}
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		check(m.name, m.unit)
		code = append(code, m.name+" "+m.unit)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		declared = append(declared, m.Name+" "+m.Unit)
	}
	sort.Strings(code)
	sort.Strings(declared)
	if strings.Join(code, "\n") != strings.Join(declared, "\n") {
		t.Errorf("BENCHMARK.json declares\n%s\nthe benchmark emits\n%s", strings.Join(declared, "\n"), strings.Join(code, "\n"))
	}
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size,
// untraced and traced, and checks it verifies and reports every
// metric it declares.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := w.run(tinyOptions(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct() || res.attempted < 1 {
				t.Fatalf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.attempted, res.failed, res.problems)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, m := range defs {
				if _, ok := res.metrics[m.name]; !ok {
					t.Errorf("%s traced=%v: no %s", w.name, traced, m.name)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.metrics[m.name] <= 0 {
						t.Errorf("%s: end-to-end metric %s reads %v", w.name, m.name, res.metrics[m.name])
					}
				}
			}
		}
	}
}

// TestSameStreamsSameChecksum: kv-read-tcp and kv-chaos replay the
// same streams, over TCP and through injected faults, so their
// reference checksums agree.
func TestSameStreamsSameChecksum(t *testing.T) {
	a, err := kvReadTCP.run(tinyOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	b, err := kvChaos.run(tinyOptions(t, false))
	if err != nil {
		t.Fatal(err)
	}
	if a.meta["checksum"] == nil || a.meta["checksum"] != b.meta["checksum"] {
		t.Fatalf("kv-read-tcp checksum %v, kv-chaos %v", a.meta["checksum"], b.meta["checksum"])
	}
}

// TestWrongChecksumIsAFailure: a reference checksum that does not
// match is reported as failed ops and correct=false, not as a number.
func TestWrongChecksumIsAFailure(t *testing.T) {
	o := tinyOptions(t, false)
	o.refSum = func(p kv.Params) (uint64, error) {
		sum, err := simReferenceSum(p)
		return sum ^ 1, err
	}
	res, err := kvWrite.run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct() || res.failed == 0 {
		t.Fatalf("wrong checksum not reported: failed=%d problems=%v", res.failed, res.problems)
	}
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	if err := report(f, res, false); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var last struct {
		Correct bool
		Failed  int64
		Metrics map[string]any
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Correct || last.Failed == 0 || len(last.Metrics) != 0 {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
}

// TestHistQuantile compares the histogram's quantiles with exact
// nearest-rank ones.
func TestHistQuantile(t *testing.T) {
	var h hist
	var vals []int64
	x := uint64(7)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := int64(x>>40) % 5_000_000
		h.add(v)
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := float64(vals[int(q*float64(len(vals))+0.999999)-1])
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("q%.2f = %.0f, want %.0f within 1%%", q, got, want)
		}
	}
}
