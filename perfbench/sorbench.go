package main

import (
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
)

// sorEpisode is one verified SOR episode on a fresh cluster.
type sorEpisode struct {
	setup, cluster, app float64 // set-up seconds: total, cluster build, SOR Setup
	w                   window
	heapMiB             float64
}

// runEpisode builds a 2-node LRC simulator cluster, sets SOR up, runs
// it and verifies the grid against the sequential reference.
func runEpisode(o options, traced bool, spans *spanLog) (*sorEpisode, error) {
	cfg := core.Config{Nodes: 2, Protocol: core.LRC, PageSize: 1024, HeapBytes: 1 << 20, Seed: o.seed, EventTrace: traced}
	t0 := time.Now()
	d, err := newDSM("sim", cfg)
	if err != nil {
		return nil, err
	}
	defer d.close()
	t1 := time.Now()
	app := apps.NewSOR(o.sz.sorGrid, o.sz.sorGrid, o.sz.sorSweeps)
	if err := app.Setup(d.cls[0]); err != nil {
		return nil, err
	}
	t2 := time.Now()
	e := &sorEpisode{setup: t2.Sub(t0).Seconds(), cluster: t1.Sub(t0).Seconds(), app: t2.Sub(t1).Seconds()}
	sp := spans.begin("core.Cluster.Run " + app.Name())
	m := takeMark(d)
	err = d.run(app.Run)
	e.w = m.since(d)
	spans.end(sp, windowCounts(e.w))
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	if !traced {
		e.heapMiB = liveHeapMiB()
	}
	if err := app.Verify(d.cls[0]); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	return e, nil
}

// episodes runs 1.5 verified episodes per second of dur, at least
// o.sz.minEpisodes: about dur's worth on a 2-vCPU Xeon VM, and the
// same work on every commit. A failed episode counts all its sweeps
// failed and ends the phase.
func episodes(o options, traced bool, dur time.Duration, spans *spanLog, res *result) []*sorEpisode {
	var out []*sorEpisode
	for len(out) < max(o.sz.minEpisodes, int(1.5*dur.Seconds())) {
		res.attempted += int64(o.sz.sorSweeps)
		e, err := runEpisode(o, traced, spans)
		if err != nil {
			res.fail(int64(o.sz.sorSweeps), fmt.Errorf("sor episode %d: %w", len(out), err))
			break
		}
		out = append(out, e)
	}
	return out
}

func windowsOf(eps []*sorEpisode) []window {
	var ws []window
	for _, e := range eps {
		ws = append(ws, e.w)
	}
	return ws
}

// runSOR is the sor-lrc workload. An op is one sweep. Sweeps are not
// timed one by one, so each sweep's latency is its episode's Run time
// divided by the sweeps.
func runSOR(o options) (*result, error) {
	res := newResult()
	res.meta["transport"] = "sim"
	res.meta["protocol"] = "lrc"
	res.meta["grid"] = o.sz.sorGrid
	res.meta["sweeps_per_episode"] = o.sz.sorSweeps
	dur := o.measure
	if o.traced {
		dur = o.measure / 2
	}
	eps := episodes(o, false, dur, nil, res)
	if !res.correct() {
		return res, nil
	}
	w := sumWindows(windowsOf(eps))
	sweeps := float64(len(eps) * o.sz.sorSweeps)
	res.meta["episodes"] = len(eps)
	var setup, cluster, app, heap, perSweep []float64
	for _, e := range eps {
		setup = append(setup, e.setup)
		cluster = append(cluster, e.cluster)
		app = append(app, e.app)
		heap = append(heap, e.heapMiB)
		perSweep = append(perSweep, float64(e.w.wall.Nanoseconds())/float64(o.sz.sorSweeps))
	}
	res.meta["sor_s"] = median(perSweep) * float64(o.sz.sorSweeps) / 1e9
	res.meta["episode_sweep_us"] = perSweep
	if !o.traced {
		res.metrics["setup_s"] = median(setup)
		res.metrics["ops_per_s"] = sweeps / w.wall.Seconds()
		res.metrics["op_p50_us"] = median(perSweep) / 1e3
		res.metrics["msgs_per_op"] = float64(w.st.MsgsSent) / sweeps
		res.metrics["bytes_per_op"] = float64(w.st.BytesSent) / sweeps
		res.metrics["allocs_per_op"] = float64(w.mallocs) / sweeps
		res.metrics["heap_mb"] = median(heap)
		return res, nil
	}
	spans := newSpanLog()
	g := watchGoroutines()
	teps := episodes(o, true, o.measure/2, spans, res)
	gmax := g.Stop()
	if !res.correct() {
		return res, nil
	}
	tw := sumWindows(windowsOf(teps))
	layerMetrics(res, tw, float64(len(teps)*o.sz.sorSweeps))
	for _, k := range []string{"kv.op_us_p99", "kv.get_us_p50", "kv.get_us_p99", "kv.put_us_p50", "kv.put_us_p99",
		"loadgen.slo_qps", "loadgen.lag_us_p99", "loadgen.late_frac"} {
		res.metrics[k] = 0
	}
	res.metrics["core.cluster_setup_ms"] = median(cluster) * 1e3
	res.metrics["app.setup_ms"] = median(app) * 1e3
	res.metrics["go.goroutines_max"] = float64(gmax)
	untracedMean := w.wall.Seconds() / float64(len(eps))
	tracedMean := tw.wall.Seconds() / float64(len(teps))
	res.metrics["trace.overhead_frac"] = tracedMean/untracedMean - 1
	if err := probes(o, res); err != nil {
		return res, err
	}
	return res, spans.write(spanPath(o, "sor-lrc"))
}
