package metrics_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
	"repro/internal/metrics"
)

// The sampler's op-derived signals need no event tracing: a kv run on
// a cluster built without EventTrace yields a windowed op rate and the
// op-latency family in the Prometheus exposition.
func TestSamplerOpsWithoutEventTrace(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: core.LRC, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	smp := metrics.Start(metrics.Config{Node: -1, Interval: 5 * time.Millisecond, Source: c.TotalStats})
	defer smp.Stop()
	store := kv.New(kv.Params{Keys: 64, Ops: 200, Dist: loadgen.Zipfian, Theta: 0.9, Mix: loadgen.Mixed, Seed: 3})
	if err := apps.RunAndVerify(c, store); err != nil {
		t.Fatal(err)
	}
	c.Close()
	smp.Stop()
	if w := smp.Window(); w.OpsPerSec <= 0 {
		t.Fatalf("window ops/s = %v over %d samples, want > 0", w.OpsPerSec, w.Samples)
	}
	var buf strings.Builder
	if err := smp.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := metrics.ParseExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}
	for _, name := range metrics.MetricNames(samples) {
		if name == "dsm_op_latency_seconds_count" {
			if n := samples[`dsm_op_latency_seconds_count{node="-1"}`]; n != 400 {
				t.Fatalf("dsm_op_latency_seconds_count = %v, want 400", n)
			}
			return
		}
	}
	t.Fatalf("no dsm_op_latency_seconds family in the exposition:\n%s", buf.String())
}
