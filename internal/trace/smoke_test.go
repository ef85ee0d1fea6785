package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/trace"
)

var simFaultPlan = simnet.FaultPlan{DropProb: 0.03, DupProb: 0.02, SpikeProb: 0.02, Spike: 2 * time.Millisecond}

// runSOR runs the 4-node SOR kernel and returns the cluster's final
// state. It is the acceptance scenario for the tracing layer: with
// tracing on, every node must contribute events whose merged timeline
// is causally ordered and whose Chrome export parses; with tracing
// off, message and byte counts must be bit-identical to a traced run
// (tracing must be observation-only).
func runSOR(t *testing.T, cfg core.Config) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app := apps.NewSOR(32, 24, 4)
	if err := app.Setup(c); err != nil {
		c.Close()
		t.Fatal(err)
	}
	if err := c.Run(app.Run); err != nil {
		c.Close()
		t.Fatal(err)
	}
	if err := app.Verify(c); err != nil {
		c.Close()
		t.Fatal(err)
	}
	return c
}

func baseCfg(proto core.Protocol) core.Config {
	return core.Config{Nodes: 4, Protocol: proto, PageSize: 512, Seed: 7}
}

func TestTraceSmoke(t *testing.T) {
	for _, proto := range []core.Protocol{core.SCFixed, core.LRC} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := baseCfg(proto)
			cfg.EventTrace = true
			c := runSOR(t, cfg)
			defer c.Close()

			streams := c.TraceStreams()
			if len(streams) != 4 {
				t.Fatalf("got %d streams, want 4", len(streams))
			}
			for _, s := range streams {
				if len(s.Events) == 0 {
					t.Fatalf("node %d traced no events", s.Node)
				}
			}

			merged := trace.Merge(streams)
			if err := trace.CheckCausal(merged); err != nil {
				t.Fatalf("merged timeline violates causality: %v", err)
			}

			var buf bytes.Buffer
			if err := trace.WriteChrome(&buf, streams); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatalf("Chrome export is not valid JSON: %v", err)
			}
			tids := map[float64]bool{}
			for _, ev := range doc.TraceEvents {
				tids[ev["tid"].(float64)] = true
			}
			if len(tids) != 4 {
				t.Fatalf("Chrome export has tracks for %d nodes, want 4", len(tids))
			}

			// Latency histograms are recorded too.
			total := c.TotalStats()
			if total.Lat.Fault.Count == 0 || total.Lat.RPC.Count == 0 || total.Lat.BarrierWait.Count == 0 {
				t.Fatalf("latency classes empty: fault=%d rpc=%d barrier=%d",
					total.Lat.Fault.Count, total.Lat.RPC.Count, total.Lat.BarrierWait.Count)
			}
		})
	}
}

// runParity runs a barrier-phased single-writer/all-readers loop
// whose message traffic is a pure function of the program: every
// same-page conflict is barrier-separated, so the counters cannot
// depend on goroutine scheduling. That determinism is what lets the
// parity test demand bit-identical counts from a traced and an
// untraced run — SOR is the wrong vehicle for it, because its band
// boundary rows are read while the neighbour is writing them, and
// which side faults first (legally) changes the message count.
func runParity(t *testing.T, cfg core.Config) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const pages = 4
	ps := int64(cfg.PageSize)
	data, err := c.AllocPage(pages * ps)
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	err = c.Run(func(n *core.Node) error {
		for round := 0; round < 6; round++ {
			if n.ID() == round%n.N() {
				for p := int64(0); p < pages; p++ {
					if err := n.WriteUint64(data+p*ps, uint64(round*10)+uint64(p)); err != nil {
						return err
					}
				}
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
			for p := int64(0); p < pages; p++ {
				if _, err := n.ReadUint64(data + p*ps); err != nil {
					return err
				}
			}
			if err := n.Barrier(1); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	return c
}

// TestTracingIsObservationOnly asserts the counter-parity guarantee:
// an identically seeded run with tracing enabled sends exactly the
// same messages and bytes as one without.
func TestTracingIsObservationOnly(t *testing.T) {
	for _, proto := range []core.Protocol{core.SCFixed, core.LRC} {
		t.Run(proto.String(), func(t *testing.T) {
			plain := runParity(t, baseCfg(proto))
			defer plain.Close()
			cfg := baseCfg(proto)
			cfg.EventTrace = true
			traced := runParity(t, cfg)
			defer traced.Close()

			p, q := plain.TotalStats(), traced.TotalStats()
			if p.MsgsSent != q.MsgsSent || p.BytesSent != q.BytesSent {
				t.Fatalf("tracing changed traffic: plain msgs=%d bytes=%d, traced msgs=%d bytes=%d",
					p.MsgsSent, p.BytesSent, q.MsgsSent, q.BytesSent)
			}
			if p.ReadFaults != q.ReadFaults || p.WriteFaults != q.WriteFaults {
				t.Fatalf("tracing changed faults: plain %d/%d, traced %d/%d",
					p.ReadFaults, p.WriteFaults, q.ReadFaults, q.WriteFaults)
			}
		})
	}
}

// TestTraceChaos runs SOR under fault injection with tracing on: the
// stream must include chaos and retry events and still merge causally.
func TestTraceChaos(t *testing.T) {
	cfg := baseCfg(core.LRC)
	cfg.EventTrace = true
	cfg.Faults = &simFaultPlan
	c := runSOR(t, cfg)
	defer c.Close()
	merged := trace.Merge(c.TraceStreams())
	if err := trace.CheckCausal(merged); err != nil {
		t.Fatalf("chaos timeline violates causality: %v", err)
	}
	var chaos, retries int
	for _, e := range merged {
		switch e.Type {
		case trace.EvChaos:
			chaos++
		case trace.EvRetry:
			retries++
		}
	}
	if chaos == 0 {
		t.Fatal("no chaos injections traced under a fault plan")
	}
	_ = retries // drops usually force some, but a lucky seed may not
}
