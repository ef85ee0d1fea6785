package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
)

// TestStatsJSONShape pins the -stats json document: counters per
// node plus the latency histogram classes with the interpolated SLO
// quantiles (p50/p90/p99/p999) each class has the samples to resolve. Dashboards parse
// this shape; changing a key is a breaking change and should have to
// touch this test.
func TestStatsJSONShape(t *testing.T) {
	s := kv.New(kv.Params{Keys: 64, Ops: 120, Dist: loadgen.Zipfian, Theta: 0.9, Mix: loadgen.Mixed, Seed: 7})
	cfg := core.Config{Nodes: 2, Protocol: core.LRC, PageSize: 512}
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if err := apps.RunAndVerify(c, s); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := printJSON(&buf, s, core.LRC, cfg.Nodes, cfg.PageSize, time.Since(start), "ok", c.Stats(), 0); err != nil {
		t.Fatal(err)
	}

	// Decode generically: the assertions are about JSON key names and
	// value presence, exactly what an external consumer sees.
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("-stats json is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, key := range []string{"app", "protocol", "nodes", "page", "elapsed_ms", "verify", "per_node", "total"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("top-level key %q missing:\n%s", key, buf.String())
		}
	}
	if doc["verify"] != "ok" {
		t.Fatalf("verify = %v, want ok", doc["verify"])
	}
	perNode, ok := doc["per_node"].([]any)
	if !ok || len(perNode) != cfg.Nodes {
		t.Fatalf("per_node has %d entries, want %d", len(perNode), cfg.Nodes)
	}

	checkNode := func(label string, v any) {
		node, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("%s is not an object", label)
		}
		counters, ok := node["counters"].(map[string]any)
		if !ok || len(counters) == 0 {
			t.Fatalf("%s carries no counters", label)
		}
		hists, ok := node["histograms"].([]any)
		if !ok || len(hists) == 0 {
			t.Fatalf("%s carries no histograms", label)
		}
		foundOp := false
		for _, h := range hists {
			hm, ok := h.(map[string]any)
			if !ok {
				t.Fatalf("%s histogram entry is not an object", label)
			}
			for _, key := range []string{"class", "count", "mean_us", "max_us"} {
				if _, ok := hm[key]; !ok {
					t.Fatalf("%s histogram missing key %q:\n%s", label, key, buf.String())
				}
			}
			// A quantile key is present exactly when the class holds
			// the 10/(1-q) samples that resolve it.
			count, _ := hm["count"].(float64)
			for key, need := range map[string]float64{"p50_us": 20, "p90_us": 100, "p99_us": 1000, "p999_us": 10000} {
				if _, ok := hm[key]; ok != (count >= need) {
					t.Fatalf("%s %v histogram: %q present=%v with count %v:\n%s", label, hm["class"], key, ok, count, buf.String())
				}
			}
			if hm["class"] != "op" {
				continue
			}
			foundOp = true
			p50, _ := hm["p50_us"].(float64)
			p90, _ := hm["p90_us"].(float64)
			maxUs, _ := hm["max_us"].(float64)
			if p50 <= 0 || p90 <= 0 {
				t.Fatalf("%s op quantiles not populated: p50=%v p90=%v", label, p50, p90)
			}
			if p50 > p90 || p90 > maxUs {
				t.Fatalf("%s op quantiles not monotone: p50=%v p90=%v max=%v", label, p50, p90, maxUs)
			}
		}
		if !foundOp {
			t.Fatalf("%s has no \"op\" histogram class:\n%s", label, buf.String())
		}
	}
	for i, v := range perNode {
		checkNode("per_node["+string(rune('0'+i))+"]", v)
	}
	checkNode("total", doc["total"])
}

// TestKVFromFlags pins the flag-to-params mapping.
func TestKVFromFlags(t *testing.T) {
	s := kvFromFlags(apps.Small, 9, 1500, "write-heavy", 0.8, 512, 64)
	p := s.Params()
	if p.Seed != 9 || p.QPS != 1500 || p.Mix != loadgen.WriteHeavy || p.Dist != loadgen.Zipfian || p.Theta != 0.8 || p.Keys != 512 || p.Ops != 64 {
		t.Fatalf("flag mapping wrong: %+v", p)
	}
	// -zipf 0 selects uniform; zero keys/ops keep the scale defaults.
	s = kvFromFlags(apps.Medium, 1, 0, "", 0, 0, 0)
	p = s.Params()
	def := kv.NewMedium().Params()
	if p.Dist != loadgen.Uniform || p.Keys != def.Keys || p.Ops != def.Ops || p.Mix != def.Mix {
		t.Fatalf("defaults wrong: %+v (medium base %+v)", p, def)
	}
}
