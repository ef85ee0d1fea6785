package main

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// connectBarrier is the barrier id set-up uses to make every node
// exchange messages once (on TCP this dials and handshakes both
// connections). No workload uses it.
const connectBarrier int32 = 1 << 20

// dsm is a DSM cluster hosted in this process: one simulator cluster
// holding every node ("sim"), or one distributed cluster per node
// talking over real loopback sockets ("tcp"), exactly as separate
// processes would, each with its own transport and heap.
type dsm struct {
	cls   []*core.Cluster
	nodes []*core.Node
}

// newDSM builds and connects a cluster of cfg.Nodes nodes on the named
// transport.
func newDSM(transportName string, cfg core.Config) (*dsm, error) {
	d := &dsm{}
	switch transportName {
	case "sim":
		c, err := core.NewCluster(cfg)
		if err != nil {
			return nil, err
		}
		d.cls = []*core.Cluster{c}
		for i := 0; i < cfg.Nodes; i++ {
			d.nodes = append(d.nodes, c.Node(i))
		}
	case "tcp":
		lns := make([]net.Listener, cfg.Nodes)
		addrs := make([]string, cfg.Nodes)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				for _, l := range lns[:i] {
					l.Close()
				}
				return nil, err
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		for i := 0; i < cfg.Nodes; i++ {
			tr, err := tcp.New(tcp.Config{
				Self:         transport.NodeID(i),
				Addrs:        addrs,
				Listener:     lns[i],
				ConfigDigest: cfg.Digest(),
			})
			if err != nil {
				lns[i].Close()
			} else {
				var c *core.Cluster
				if c, err = core.NewDistributedNode(cfg, tr, i); err == nil {
					d.cls = append(d.cls, c)
					d.nodes = append(d.nodes, c.Node(i))
					continue
				}
				tr.Close() // closes lns[i]
			}
			for _, l := range lns[i+1:] {
				l.Close()
			}
			d.close()
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown transport %q", transportName)
	}
	if err := d.run(func(n *core.Node) error { return n.Barrier(connectBarrier) }); err != nil {
		d.close()
		return nil, fmt.Errorf("connect: %w", err)
	}
	return d, nil
}

// clusterOf returns the cluster hosting node i.
func (d *dsm) clusterOf(i int) *core.Cluster { return d.cls[min(i, len(d.cls)-1)] }

// run executes fn once per node concurrently (core.Cluster.Run on
// every cluster) and returns the first error.
func (d *dsm) run(fn func(n *core.Node) error) error {
	if len(d.cls) == 1 {
		return d.cls[0].Run(fn)
	}
	errs := make([]error, len(d.cls))
	var wg sync.WaitGroup
	for i, c := range d.cls {
		wg.Add(1)
		go func(i int, c *core.Cluster) {
			defer wg.Done()
			errs[i] = c.Run(fn)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// counters sums every node's protocol counters (and latency
// histograms, when traced) and every transport's traffic counters.
func (d *dsm) counters() (stats.Snapshot, transport.CountersSnapshot) {
	var st stats.Snapshot
	var tc transport.CountersSnapshot
	for _, c := range d.cls {
		st = st.Add(c.TotalStats())
		tc = tc.Add(c.TransportCounters())
	}
	return st, tc
}

func (d *dsm) close() {
	for _, c := range d.cls {
		c.Close()
	}
}
