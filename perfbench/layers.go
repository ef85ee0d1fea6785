package main

import (
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wire"
)

// layerMetrics fills the per-layer metrics a traced window yields:
// counter deltas per op (a kv op, or a SOR sweep) and the latency
// histograms core.Config.EventTrace collects.
func layerMetrics(res *result, w window, ops float64) {
	st := w.st
	per := func(v int64) float64 { return float64(v) / ops }
	if st.Lat == nil {
		panic("perfbench: traced window carries no latency histograms")
	}
	lat := st.Lat
	m := res.metrics
	m["dsync.lock_wait_us_p50"] = us(lat.LockWait.Quantile(0.5))
	m["dsync.lock_wait_us_p99"] = us(lat.LockWait.Quantile(0.99))
	m["dsync.acquires_per_op"] = per(st.LockAcquires)
	m["dsync.barrier_wait_ms_per_sweep"] = per(st.BarrierWaitNs) / 1e6
	m["nodecore.rpc_us_p50"] = us(lat.RPC.Quantile(0.5))
	m["nodecore.rpc_us_p99"] = us(lat.RPC.Quantile(0.99))
	m["nodecore.fault_us_p50"] = us(lat.Fault.Quantile(0.5))
	m["nodecore.fault_us_p99"] = us(lat.Fault.Quantile(0.99))
	m["nodecore.faults_per_op"] = per(st.Faults())
	m["nodecore.accesses_per_op"] = per(st.Reads + st.Writes)
	m["nodecore.retries_per_op"] = per(st.Retries)
	m["nodecore.dup_requests_per_op"] = per(st.DupRequests)
	m["nodecore.late_replies_per_op"] = per(st.LateReplies)
	m["sc.invalidations_per_op"] = per(st.Invalidations)
	m["sc.page_transfers_per_op"] = per(st.PageTransfers)
	m["lrc.diffs_per_sweep"] = per(st.DiffsCreated)
	m["lrc.diff_bytes_per_sweep"] = per(st.DiffBytes)
	m["lrc.diff_fetches_per_sweep"] = per(st.DiffFetches)
	m["lrc.write_notices_per_sweep"] = per(st.WriteNotices)
	m["lrc.twins_per_sweep"] = per(st.TwinCopies)
	m["wire.bytes_per_msg"] = 0
	if w.net.MsgsSent > 0 {
		m["wire.bytes_per_msg"] = float64(w.net.BytesSent) / float64(w.net.MsgsSent)
	}
	m["transport.msgs_per_op"] = per(w.net.MsgsSent)
	m["transport.bytes_per_op"] = per(w.net.BytesSent)
	m["tcp.redials"] = float64(w.net.Redials)
	m["tcp.send_errors"] = float64(w.net.SendErrors)
	m["simnet.dropped_per_op"] = per(st.MsgsDropped)
	m["simnet.duplicated_per_op"] = per(st.MsgsDuplicated)
	m["go.gc_cycles_per_op"] = float64(w.gcs) / ops
	res.meta["fault_samples"] = lat.Fault.Count
	res.meta["rpc_samples"] = lat.RPC.Count
	res.meta["lock_wait_samples"] = lat.LockWait.Count
}

// spanPath is where a traced run writes its spans.
func spanPath(o options, name string) string {
	return filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.json", name, o.seed))
}

// perCall times fn(iters) in five batches sized to the probe budget and
// returns the median ns per call and the allocations per call over all
// batches.
func perCall(budget time.Duration, fn func(iters int) error) (ns, allocs float64, err error) {
	iters := 1
	for {
		t := time.Now()
		if err := fn(iters); err != nil {
			return 0, 0, err
		}
		if time.Since(t) >= budget/10 || iters >= 1<<26 {
			break
		}
		iters *= 2
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var per []float64
	for b := 0; b < 5; b++ {
		t := time.Now()
		if err := fn(iters); err != nil {
			return 0, 0, err
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(iters))
	}
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(5*iters), nil
}

// probes times single layers from outside, around their public calls,
// and fills the probe metrics.
func probes(o options, res *result) error {
	m := res.metrics
	var err error
	// set records the time (in units of unit ns) and allocations of
	// one of the calls fn makes calls times per iteration.
	set := func(nsKey, allocKey string, calls, unit float64, fn func(iters int) error) {
		if err != nil {
			return
		}
		var ns, allocs float64
		if ns, allocs, err = perCall(o.sz.probe, fn); err != nil {
			err = fmt.Errorf("probe %s: %w", nsKey, err)
			return
		}
		m[nsKey] = ns / calls / unit
		if allocKey != "" {
			m[allocKey] = allocs / calls
		}
	}

	// Software-MMU hit: a resident page on a 1-node cluster.
	c, cerr := core.NewCluster(core.Config{Nodes: 1})
	if cerr != nil {
		return cerr
	}
	defer c.Close()
	addr := c.MustAlloc(8)
	n := c.Node(0)
	if err := n.WriteUint64(addr, 1); err != nil {
		return err
	}
	var sink uint64
	set("nodecore.hit_read_ns", "nodecore.hit_allocs", 1, 1, func(iters int) error {
		for i := 0; i < iters; i++ {
			v, err := n.ReadUint64(addr)
			if err != nil {
				return err
			}
			sink += v
		}
		return nil
	})
	set("nodecore.hit_write_ns", "", 1, 1, func(iters int) error {
		for i := 0; i < iters; i++ {
			if err := n.WriteUint64(addr, uint64(i)); err != nil {
				return err
			}
		}
		return nil
	})
	_ = sink

	// sc-fixed write-fault ping-pong: each write takes the page from
	// the other node.
	sc, cerr := core.NewCluster(core.Config{Nodes: 2, Protocol: core.SCFixed})
	if cerr != nil {
		return cerr
	}
	defer sc.Close()
	scAddr, cerr := sc.AllocPage(8)
	if cerr != nil {
		return cerr
	}
	set("proto.sc_write_fault_pingpong_us", "proto.sc_write_fault_pingpong_allocs", 2, 1e3, func(iters int) error {
		for i := 0; i < iters; i++ {
			for id := 0; id < 2; id++ {
				if err := sc.Node(id).WriteUint64(scAddr, uint64(i)); err != nil {
					return err
				}
			}
		}
		return nil
	})

	// LRC lock acquire + release ping-pong with one write inside.
	lrc, cerr := core.NewCluster(core.Config{Nodes: 2, Protocol: core.LRC})
	if cerr != nil {
		return cerr
	}
	defer lrc.Close()
	lrcAddr, cerr := lrc.AllocPage(8)
	if cerr != nil {
		return cerr
	}
	set("proto.lrc_lock_pingpong_us", "proto.lrc_lock_pingpong_allocs", 2, 1e3, func(iters int) error {
		for i := 0; i < iters; i++ {
			for id := 0; id < 2; id++ {
				nd := lrc.Node(id)
				if err := nd.Acquire(1); err != nil {
					return err
				}
				if err := nd.WriteUint64(lrcAddr, uint64(i)); err != nil {
					return err
				}
				if err := nd.Release(1); err != nil {
					return err
				}
			}
		}
		return nil
	})

	// wire: a 1 KiB page reply.
	msg := wire.Msg{Kind: wire.KPageReply, From: 0, To: 1, Req: 42, Page: 7, Data: make([]byte, 1024)}
	buf := msg.Encode(nil)
	set("wire.encode_ns", "", 1, 1, func(iters int) error {
		for i := 0; i < iters; i++ {
			buf = msg.Encode(buf[:0])
		}
		return nil
	})
	var dec wire.Msg
	set("wire.decode_ns", "", 1, 1, func(iters int) error {
		for i := 0; i < iters; i++ {
			if err := wire.DecodeInto(&dec, buf); err != nil {
				return err
			}
		}
		return nil
	})

	// mem: diff of a 1 KiB page with 64 scattered modified words.
	base := make([]byte, 1024)
	cur := make([]byte, 1024)
	for i := range base {
		base[i] = byte(i * 7)
	}
	copy(cur, base)
	for w := 0; w < 64; w++ {
		cur[w*16] ^= 0xff
	}
	diff := mem.CreateDiff(base, cur)
	dst := append([]byte(nil), base...)
	var out []byte
	set("mem.diff_create_ns", "", 1, 1, func(iters int) error {
		for i := 0; i < iters; i++ {
			out = mem.AppendDiff(out[:0], base, cur)
		}
		return nil
	})
	set("mem.diff_apply_ns", "", 1, 1, func(iters int) error {
		for i := 0; i < iters; i++ {
			if err := mem.ApplyDiff(dst, diff); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Endpoint Send -> Recv round trips on standalone 2-endpoint
	// transports.
	sn, serr := simnet.New(simnet.Config{Nodes: 2})
	if serr != nil {
		return serr
	}
	defer sn.Close()
	set("simnet.rtt_us", "", 1, 1e3, roundTrips(sn.Endpoint(0), sn.Endpoint(1)))
	t0, t1, terr := tcpPair()
	if terr != nil {
		return terr
	}
	defer t0.Close()
	defer t1.Close()
	set("tcp.rtt_us", "", 1, 1e3, roundTrips(t0.Endpoint(0), t1.Endpoint(1)))
	if err != nil {
		return err
	}
	m["loadgen.sleep_overshoot_us"] = sleepOvershoot()
	return nil
}

// roundTrips bounces one small message between a and b.
func roundTrips(a, b transport.Endpoint) func(iters int) error {
	return func(iters int) error {
		for i := 0; i < iters; i++ {
			if err := a.Send(&wire.Msg{Kind: wire.KAck, To: b.ID(), Req: uint64(i)}); err != nil {
				return err
			}
			if _, ok := <-b.Recv(); !ok {
				return fmt.Errorf("endpoint %d closed", b.ID())
			}
			if err := b.Send(&wire.Msg{Kind: wire.KAck, To: a.ID(), Req: uint64(i)}); err != nil {
				return err
			}
			if _, ok := <-a.Recv(); !ok {
				return fmt.Errorf("endpoint %d closed", a.ID())
			}
		}
		return nil
	}
}

// tcpPair builds two TCP transports connected over loopback.
func tcpPair() (*tcp.Transport, *tcp.Transport, error) {
	var lns [2]net.Listener
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			if i == 1 {
				lns[0].Close()
			}
			return nil, nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	t0, err := tcp.New(tcp.Config{Self: 0, Addrs: addrs, Listener: lns[0]})
	if err != nil {
		lns[1].Close()
		return nil, nil, err
	}
	t1, err := tcp.New(tcp.Config{Self: 1, Addrs: addrs, Listener: lns[1]})
	if err != nil {
		t0.Close()
		return nil, nil, err
	}
	return t0, t1, nil
}

// sleepOvershoot returns the median amount by which time.Sleep(50µs)
// oversleeps: the timer floor an open-loop pacer built on sleeps has.
func sleepOvershoot() float64 {
	const want = 50 * time.Microsecond
	over := make([]int64, 101)
	for i := range over {
		t := time.Now()
		time.Sleep(want)
		over[i] = (time.Since(t) - want).Nanoseconds()
	}
	sort.Slice(over, func(i, j int) bool { return over[i] < over[j] })
	return us(over[len(over)/2])
}
