package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
	"repro/internal/simnet"
)

const (
	kvKeys    = 4096
	kvStripes = 16
	// windowsPerPass splits a pass's issue time into windows, so the
	// tail where one node runs alone can be left out.
	windowsPerPass = 20
	// sloLimit is the open-loop p99 limit. A sleeping client wakes
	// about 1 ms late and, at its p99, up to about 10 ms late on a
	// 2-CPU host; the limit sits well above that so timer noise cannot
	// decide loadgen.slo_qps.
	sloLimit = 25 * time.Millisecond
	// lateAfter marks an open-loop op as late when the generator
	// issued it this long after its due time.
	lateAfter = time.Millisecond
)

// kvSpec is one kv workload: a 2-node kv.Store under sc-fixed with
// 1 KiB pages, driven by one client goroutine per node (each node's
// application goroutine).
type kvSpec struct {
	name      string
	transport string
	mix       loadgen.Mix
	dist      loadgen.Dist
	theta     float64
	faults    *simnet.FaultPlan
	// rate (ops/s per node, about what a 2-vCPU Xeon VM sustains) and passes
	// fix a run's work: passes closed-loop passes of rate × seconds /
	// passes ops per node each, so two commits measured with the same
	// --seconds do the same work. Every pass needs 1000 timed ops for
	// its p99.
	rate   float64
	passes int
	// ladder is the open-loop offered rate per node of each rung, in
	// ops/s; nil runs no open-loop phase.
	ladder []float64
}

// chaosPlan is E15's fault plan.
var chaosPlan = simnet.FaultPlan{DropProb: 0.02, DupProb: 0.01, SpikeProb: 0.02, Spike: 2 * time.Millisecond}

var (
	kvReadTCP = kvSpec{name: "kv-read-tcp", transport: "tcp", mix: loadgen.ReadHeavy, dist: loadgen.Zipfian, theta: 0.99,
		rate: 12000, passes: 7, ladder: []float64{1000, 2000, 4000, 6000, 8000}}
	kvWrite = kvSpec{name: "kv-write", transport: "sim", mix: loadgen.WriteHeavy, dist: loadgen.Uniform,
		rate: 20000, passes: 7}
	kvChaos = kvSpec{name: "kv-chaos", transport: "sim", mix: loadgen.ReadHeavy, dist: loadgen.Zipfian, theta: 0.99, faults: &chaosPlan,
		rate: 250, passes: 4}
)

func (s kvSpec) params(seed int64, ops int) kv.Params {
	return kv.Params{Keys: kvKeys, Stripes: kvStripes, Ops: ops, Dist: s.dist, Theta: s.theta, Mix: s.mix, Seed: seed}
}

func (s kvSpec) config(seed int64, traced bool) core.Config {
	cfg := core.Config{Nodes: 2, Protocol: core.SCFixed, PageSize: 1024, HeapBytes: 4 << 20, Seed: seed, EventTrace: traced}
	if s.faults != nil {
		f := *s.faults
		cfg.Faults = &f
	}
	return cfg
}

// genConfig is the loadgen configuration kv.Store derives from p for
// one node, so the benchmark issues exactly the streams Verify replays.
func genConfig(p kv.Params, node, nodes int) loadgen.Config {
	return loadgen.Config{Seed: p.Seed, Node: node, Nodes: nodes, Keys: p.Keys, Ops: p.Ops, Dist: p.Dist, Theta: p.Theta, Mix: p.Mix}
}

// newStores sets up one kv.Store per cluster: each process of a real
// cluster runs Setup on its own instance, and the deterministic
// allocator gives every instance the same layout.
func newStores(d *dsm, p kv.Params) ([]*kv.Store, error) {
	var stores []*kv.Store
	for _, c := range d.cls {
		s := kv.New(p)
		if err := s.Setup(c); err != nil {
			return nil, err
		}
		stores = append(stores, s)
	}
	return stores, nil
}

// opTime is one op of a traced pass: when it was issued and when it
// returned, in ns since the pass began.
type opTime struct {
	start, end int64
	kind       loadgen.OpKind
}

// recorder is one node's view of a pass, kept in memory that does not
// grow with the pass's op count: latency histograms for the whole pass
// and for consecutive windows of issue time.
type recorder struct {
	winNs    int64  // window length
	win      []hist // per window: issue-to-return latency (closed loop)
	all      hist   // from issue (closed loop) or due time (open loop)
	lag      hist   // open loop: issue minus due time
	get, put hist   // issue to return, by class; put includes delete
	finalLag int64
	lastEnd  int64
	ops      []opTime // traced passes only
}

func newRecorder(ops int, window time.Duration, windows int, traced bool) *recorder {
	r := &recorder{winNs: window.Nanoseconds(), win: make([]hist, windows)}
	if traced {
		r.ops = make([]opTime, 0, ops)
	}
	return r
}

func (r *recorder) record(kind loadgen.OpKind, due, start, end int64, open bool) {
	if open {
		r.all.add(end - due)
		r.lag.add(start - due)
		r.finalLag = start - due
	} else {
		r.all.add(end - start)
		w := int(start / r.winNs)
		for w >= len(r.win) {
			r.win = append(r.win, hist{})
		}
		r.win[w].add(end - start)
	}
	if kind == loadgen.Get {
		r.get.add(end - start)
	} else {
		r.put.add(end - start)
	}
	r.lastEnd = end
	if r.ops != nil {
		r.ops = append(r.ops, opTime{start, end, kind})
	}
}

// kvPass is one verified pass of fixed per-node op streams.
type kvPass struct {
	ops      int // over all nodes
	w        window
	recs     []*recorder
	checksum uint64
}

// steady returns the ops/s and the op latency histogram over the
// windows during which every node was issuing ops. Nodes finish a
// fixed stream at different times; the tail where one runs alone is
// left out.
func (r *kvPass) steady() (float64, *hist) {
	end := r.recs[0].lastEnd
	for _, rec := range r.recs {
		end = min(end, rec.lastEnd)
	}
	winNs := r.recs[0].winNs
	var h hist
	w := 0
	for ; int64(w+1)*winNs <= end; w++ {
		for _, rec := range r.recs {
			if w < len(rec.win) {
				h.merge(&rec.win[w])
			}
		}
	}
	if w == 0 {
		return float64(r.ops) / r.w.wall.Seconds(), r.merged(func(rec *recorder) *hist { return &rec.all })
	}
	return float64(h.n) / (float64(int64(w)*winNs) / 1e9), &h
}

// merged returns the histogram pick selects from every node's recorder.
func (r *kvPass) merged(pick func(rec *recorder) *hist) *hist {
	var h hist
	for _, rec := range r.recs {
		h.merge(pick(rec))
	}
	return &h
}

// runPass issues p.Ops ops per node against stores, closed loop when
// qps is 0 and otherwise open loop at qps ops/s per node, recording
// latencies by windows of the given length (about windows of them),
// then verifies the store against a sequential replay of the streams.
// With spans set it keeps every op's times and records one span per op
// under a phase span.
func runPass(d *dsm, stores []*kv.Store, p kv.Params, qps float64, window time.Duration, windows int, spans *spanLog) (*kvPass, error) {
	n := len(d.nodes)
	gens := make([]*loadgen.Gen, n)
	recs := make([]*recorder, n)
	bufs := make([][]byte, n)
	for i := range gens {
		var err error
		if gens[i], err = loadgen.New(genConfig(p, i, n)); err != nil {
			return nil, err
		}
		recs[i] = newRecorder(p.Ops, window, windows, spans != nil)
		bufs[i] = make([]byte, 32)
	}
	var interval float64
	if qps > 0 {
		interval = float64(time.Second) / qps
	}
	phase := spans.begin(fmt.Sprintf("kv.pass ops=%d qps=%g", p.Ops, qps))
	m := takeMark(d)
	begin := m.at
	err := d.run(func(nd *core.Node) error {
		id := nd.ID()
		s, g, rec, buf := stores[min(id, len(stores)-1)], gens[id], recs[id], bufs[id]
		for i := 0; i < p.Ops; i++ {
			op := g.Next()
			var due int64
			if interval > 0 {
				due = int64(float64(i) * interval)
				waitUntil(begin, due)
			}
			start := time.Since(begin).Nanoseconds()
			var err error
			switch op.Kind {
			case loadgen.Get:
				_, _, err = s.Get(nd, op.Key, buf)
			case loadgen.Put:
				err = s.Put(nd, op.Key, op.Val, buf)
			default:
				err = s.Delete(nd, op.Key, buf)
			}
			if err != nil {
				return fmt.Errorf("op %d (%s key %d): %w", i, op.Kind, op.Key, err)
			}
			rec.record(op.Kind, due, start, time.Since(begin).Nanoseconds(), interval > 0)
		}
		return nil
	})
	w := m.since(d)
	spans.end(phase, windowCounts(w))
	if err != nil {
		return nil, err
	}
	if spans != nil {
		off := begin.Sub(spans.epoch).Nanoseconds()
		for id, rec := range recs {
			out := make([]span, len(rec.ops))
			for i, t := range rec.ops {
				out[i] = span{Name: "kv." + t.kind.String(), Start: t.start + off, End: t.end + off,
					Parent: phase, Op: int64(id)<<32 | int64(i)}
			}
			spans.add(out...)
			rec.ops = nil
		}
	}
	if err := stores[0].Verify(d.cls[0]); err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	sum, err := stores[0].Checksum(d.nodes[0])
	if err != nil {
		return nil, fmt.Errorf("checksum: %w", err)
	}
	return &kvPass{ops: n * p.Ops, w: w, recs: recs, checksum: sum}, nil
}

// waitUntil sleeps an open-loop client until due ns after begin. A
// sleep overshoots by about a millisecond on small hosts; that lateness
// is what loadgen.lag_us_p99 reports. Spinning instead would starve the
// Go netpoller while both client goroutines hold the CPUs, delaying
// TCP replies by up to the runtime's 10 ms sysmon poll.
func waitUntil(begin time.Time, due int64) {
	if left := time.Duration(due) - time.Since(begin); left > 0 {
		time.Sleep(left)
	}
}

// simReferenceSum is the checksum of the reference pass replayed on a
// fault-free 2-node simulator cluster: every kv workload with the same
// streams (kv-read-tcp and kv-chaos) must reproduce it.
func simReferenceSum(p kv.Params) (uint64, error) {
	d, err := newDSM("sim", core.Config{Nodes: 2, Protocol: core.SCFixed, PageSize: 1024, HeapBytes: 4 << 20, Seed: p.Seed})
	if err != nil {
		return 0, err
	}
	defer d.close()
	stores, err := newStores(d, p)
	if err != nil {
		return 0, err
	}
	r, err := runPass(d, stores, p, 0, time.Hour, 1, nil)
	if err != nil {
		return 0, err
	}
	return r.checksum, nil
}

// setupTimes are the durations of repeated set-ups, in seconds.
type setupTimes struct{ total, cluster, app []float64 }

// build sets a cluster and a store up, timing the cluster build (TCP
// dial and handshake included) and the kv Setup. Each build of a run
// seeds its network differently (the seed fixes which messages a
// faulty network drops), so set-ups and passes do not all meet the
// same faults.
func (s kvSpec) build(seed int64, traced bool, p kv.Params, st *setupTimes) (*dsm, []*kv.Store, error) {
	t0 := time.Now()
	d, err := newDSM(s.transport, s.config(seed*1000+int64(len(st.total)), traced))
	if err != nil {
		return nil, nil, err
	}
	t1 := time.Now()
	stores, err := newStores(d, p)
	if err != nil {
		d.close()
		return nil, nil, err
	}
	t2 := time.Now()
	st.total = append(st.total, t2.Sub(t0).Seconds())
	st.cluster = append(st.cluster, t1.Sub(t0).Seconds())
	st.app = append(st.app, t2.Sub(t1).Seconds())
	return d, stores, nil
}

// reference runs the fixed-size reference pass on stores, which also
// warms the fresh cluster up, and checks its checksum against
// o.refSum.
func (s kvSpec) reference(o options, d *dsm, stores []*kv.Store, p kv.Params, res *result) error {
	res.attempted += int64(len(d.nodes) * p.Ops)
	r, err := runPass(d, stores, p, 0, time.Hour, 1, nil)
	if err != nil {
		res.fail(int64(len(d.nodes)*p.Ops), fmt.Errorf("reference pass: %w", err))
		return nil
	}
	want, err := o.refSum(p)
	if err != nil {
		return err
	}
	res.meta["checksum"] = fmt.Sprintf("%016x", r.checksum)
	if r.checksum != want {
		res.fail(int64(r.ops), fmt.Errorf("reference pass checksum %016x, want %016x", r.checksum, want))
	}
	return nil
}

// subRun is what one closed-loop pass on its own freshly built cluster
// measured.
type subRun struct {
	ops      int // over all nodes
	w        window
	qps      float64 // over the steady part
	p50, p99 float64 // op latency over the steady part, ns
	samples  int64   // ops in the steady part
	get, put *hist   // traced runs only
	heapMiB  float64
}

// subRuns measures n closed-loop passes, each on a freshly built
// cluster warmed up by a reference pass. A pass is sized so that
// s.passes of them last about o.measure. How one cluster's goroutines happen to be scheduled across the
// CPUs moves its throughput by up to ±10%, so the run reports figures
// over several clusters. Set-ups are timed into st.
func (s kvSpec) subRuns(o options, traced bool, n int, spans *spanLog, st *setupTimes, res *result) ([]*subRun, error) {
	var out []*subRun
	pRef := s.params(o.seed, o.sz.refOps)
	per := o.measure / time.Duration(s.passes)
	p := s.params(o.seed, max(1, int(s.rate*per.Seconds())))
	for i := 0; i < n; i++ {
		d, stores, err := s.build(o.seed, traced, pRef, st)
		if err != nil {
			return nil, err
		}
		if err := s.reference(o, d, stores, pRef, res); err != nil || !res.correct() {
			d.close()
			return nil, err
		}
		r, err := s.measure(d, p, per, spans, res)
		d.close()
		if err != nil || r == nil {
			return nil, err
		}
		if r.samples < int64(o.sz.samples) {
			return nil, fmt.Errorf("a pass left %d ops in its steady part, fewer than the %d its p99 needs", r.samples, o.sz.samples)
		}
		out = append(out, r)
	}
	for len(st.total) < o.sz.setups {
		d, _, err := s.build(o.seed, traced, pRef, st)
		if err != nil {
			return nil, err
		}
		d.close()
	}
	return out, nil
}

// measure runs one closed-loop pass of p on a fresh store on d,
// recording latencies in windows of about dur / windowsPerPass.
func (s kvSpec) measure(d *dsm, p kv.Params, dur time.Duration, spans *spanLog, res *result) (*subRun, error) {
	stores, err := newStores(d, p)
	if err != nil {
		return nil, err
	}
	res.attempted += int64(len(d.nodes) * p.Ops)
	r, err := runPass(d, stores, p, 0, dur/windowsPerPass, windowsPerPass, spans)
	if err != nil {
		res.fail(int64(len(d.nodes)*p.Ops), fmt.Errorf("measured pass: %w", err))
		return nil, nil
	}
	qps, h := r.steady()
	sr := &subRun{ops: r.ops, w: r.w, qps: qps, p50: h.quantile(0.5), p99: h.quantile(0.99), samples: h.n}
	if spans != nil {
		sr.get = r.merged(func(rec *recorder) *hist { return &rec.get })
		sr.put = r.merged(func(rec *recorder) *hist { return &rec.put })
	} else {
		// The pass's histograms are garbage by now; the live heap is the
		// cluster's.
		sr.heapMiB = liveHeapMiB()
	}
	return sr, nil
}

func (s kvSpec) run(o options) (*result, error) {
	res := newResult()
	res.meta["transport"] = s.transport
	res.meta["protocol"] = "sc-fixed"
	res.meta["keys"] = kvKeys
	res.meta["mix"] = s.mix.String()
	res.meta["dist"] = s.dist.String()
	res.meta["ref_ops_per_node"] = o.sz.refOps
	// A traced run measures half its passes untraced, half traced.
	n := s.passes
	if o.traced {
		n = (s.passes + 1) / 2
	}
	var st setupTimes
	subs, err := s.subRuns(o, false, n, nil, &st, res)
	if err != nil || !res.correct() {
		return res, err
	}
	var qps, p50, p99, heap, samples []float64
	var w []window
	for _, r := range subs {
		qps, p50, p99, heap = append(qps, r.qps), append(p50, r.p50), append(p99, r.p99), append(heap, r.heapMiB)
		samples = append(samples, float64(r.samples))
		w = append(w, r.w)
	}
	res.meta["passes"] = len(subs)
	res.meta["ops_per_node"] = subs[0].ops / 2
	res.meta["pass_ops_per_s"] = qps
	res.meta["pass_p99_us"] = p99
	res.meta["pass_latency_samples"] = samples
	res.meta["setups"] = len(st.total)
	if o.traced {
		res.metrics["kv.op_us_p99"] = median(p99) / 1e3
		return res, s.traced(o, median(qps), st, res)
	}
	tw := sumWindows(w)
	var ops float64
	for _, r := range subs {
		ops += float64(r.ops)
	}
	res.metrics["setup_s"] = median(st.total)
	// Medians over passes: a burst of load from elsewhere on the host
	// that slows a pass or two leaves them where they are.
	res.metrics["ops_per_s"] = median(qps)
	res.metrics["op_p50_us"] = median(p50) / 1e3
	res.metrics["msgs_per_op"] = float64(tw.st.MsgsSent) / ops
	res.metrics["bytes_per_op"] = float64(tw.st.BytesSent) / ops
	res.metrics["allocs_per_op"] = float64(tw.mallocs) / ops
	res.metrics["heap_mb"] = median(heap)
	return res, nil
}

// traced finishes a traced run: the open-loop ladder on a fresh
// untraced cluster, then sub-runs on traced clusters, then the layer
// probes. untracedQPS is the untraced sub-runs' median ops/s.
func (s kvSpec) traced(o options, untracedQPS float64, st setupTimes, res *result) error {
	if err := s.openLoop(o, res); err != nil || !res.correct() {
		return err
	}
	spans := newSpanLog()
	g := watchGoroutines()
	subs, err := s.subRuns(o, true, (s.passes+1)/2, spans, &setupTimes{}, res)
	gmax := g.Stop()
	if err != nil || !res.correct() {
		return err
	}
	var w []window
	var qps []float64
	gets, puts := &hist{}, &hist{}
	var ops float64
	for _, r := range subs {
		w = append(w, r.w)
		qps = append(qps, r.qps)
		ops += float64(r.ops)
		gets.merge(r.get)
		puts.merge(r.put)
	}
	layerMetrics(res, sumWindows(w), ops)
	res.metrics["kv.get_us_p50"] = us(gets.quantile(0.5))
	res.metrics["kv.get_us_p99"] = us(gets.quantile(0.99))
	res.metrics["kv.put_us_p50"] = us(puts.quantile(0.5))
	res.metrics["kv.put_us_p99"] = us(puts.quantile(0.99))
	res.meta["get_samples"], res.meta["put_samples"] = gets.n, puts.n
	res.metrics["core.cluster_setup_ms"] = median(st.cluster) * 1e3
	res.metrics["app.setup_ms"] = median(st.app) * 1e3
	res.metrics["go.goroutines_max"] = float64(gmax)
	res.metrics["trace.overhead_frac"] = 1 - median(qps)/untracedQPS
	if err := probes(o, res); err != nil {
		return err
	}
	return spans.write(spanPath(o, s.name))
}

// openLoop climbs the offered-rate ladder, on a fresh untraced cluster
// and a fresh store per rung, until a rung misses the limit: open-loop
// p99, timed from each op's due time, under sloLimit, and the last op
// issued less than sloLimit late (no growing backlog). Workloads
// without a ladder report zeros.
func (s kvSpec) openLoop(o options, res *result) error {
	res.metrics["loadgen.slo_qps"] = 0
	res.metrics["loadgen.lag_us_p99"] = 0
	res.metrics["loadgen.late_frac"] = 0
	if len(s.ladder) == 0 {
		return nil
	}
	d, err := newDSM(s.transport, s.config(o.seed, false))
	if err != nil {
		return err
	}
	defer d.close()
	var slo float64
	var lags hist
	var late int64
	var rungs []map[string]float64
	for _, rate := range s.ladder {
		ops := int(rate * o.sz.rung.Seconds())
		p := s.params(o.seed, ops)
		stores, err := newStores(d, p)
		if err != nil {
			return err
		}
		res.attempted += int64(len(d.nodes) * ops)
		r, err := runPass(d, stores, p, rate, time.Hour, 1, nil)
		if err != nil {
			res.fail(int64(len(d.nodes)*ops), fmt.Errorf("open-loop rung %g: %w", rate, err))
			return nil
		}
		lat := r.merged(func(rec *recorder) *hist { return &rec.all })
		lag := r.merged(func(rec *recorder) *hist { return &rec.lag })
		var finalLag int64
		for _, rec := range r.recs {
			finalLag = max(finalLag, rec.finalLag)
		}
		p99 := lat.quantile(0.99)
		rungs = append(rungs, map[string]float64{"qps_per_node": rate, "p99_us": us(p99), "last_lag_us": us(finalLag), "samples": float64(lat.n)})
		if !resolves(int(lat.n), 0.99) || p99 >= float64(sloLimit.Nanoseconds()) || finalLag >= sloLimit.Nanoseconds() {
			break
		}
		slo = rate
		lags.merge(lag)
		for i, c := range lag.b {
			if lo, _ := bucketRange(i); lo >= float64(lateAfter.Nanoseconds()) {
				late += int64(c)
			}
		}
	}
	res.meta["open_loop_rungs"] = rungs
	res.metrics["loadgen.slo_qps"] = slo
	res.metrics["loadgen.lag_us_p99"] = us(lags.quantile(0.99))
	if lags.n > 0 {
		res.metrics["loadgen.late_frac"] = float64(late) / float64(lags.n)
	}
	return nil
}
