package core_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// Latency histograms are recorded whether or not the event ring is:
// a cluster built without EventTrace reports fault, RPC, lock-wait and
// barrier-wait latencies after a SOR episode and a lock round.
func TestLatencyHistogramsWithoutEventTrace(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 3, Protocol: core.SCFixed, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := apps.RunAndVerify(c, apps.NewSOR(16, 12, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(func(n *core.Node) error {
		if err := n.Acquire(1); err != nil {
			return err
		}
		return n.Release(1)
	}); err != nil {
		t.Fatal(err)
	}
	if s := c.TraceStreams(); len(s) != 0 {
		t.Fatalf("event ring recorded %d streams without EventTrace", len(s))
	}
	lat := c.TotalStats().Lat
	for _, cl := range lat.Classes() {
		if cl.Name != "op" && cl.Count == 0 {
			t.Errorf("%s latency class is empty without EventTrace", cl.Name)
		}
	}
}
