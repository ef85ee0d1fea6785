// dsmrun executes one DSM workload under one protocol and dumps the
// per-node protocol counters — the quickest way to see how a
// protocol behaves on a workload.
//
// Usage:
//
//	dsmrun -app sor -proto lrc -nodes 8 -page 1024
//	dsmrun -app sor -proto sc-fixed -chaos       # under fault injection
//	dsmrun -app kvstore -qps 2000 -mix read-heavy -zipf 0.99   # serving workload with SLO report
//	dsmrun -app sor -trace out.json              # Chrome/Perfetto trace
//	dsmrun -app sor -stats json                  # machine-readable output
//	dsmrun -transport tcp -nodes 3 -app sor      # multi-process demo
//	dsmrun -transport tcp -node 1 -peers h0:p0,h1:p1,h2:p2 -app sor
//	dsmrun -transport tcp -nodes 3 -app sor -debug-addr 127.0.0.1:0
//	dsmrun -app kvstore -qps 2000 -sample                 # metrics sampler + windowed summary
//	dsmrun -transport tcp -nodes 3 -app kvstore -watch    # live per-node dashboard over the demo
//	dsmrun -app sor -chaos -flight-dir /tmp/flight        # stall evidence bundles (dsmtrace -flight)
//	dsmrun -list
//
// -trace writes a Chrome trace-event file loadable in Perfetto
// (ui.perfetto.dev) with one track per node and flow arrows pairing
// each RPC send with its receive. Under -transport tcp each process
// writes its own FILE.node<id>. -debug-addr (tcp only) serves /stats,
// /trace, /histograms, and /debug/pprof/ per node while the run is
// live; with the loopback demo use a :0 port so every child can bind.
//
// With -transport tcp each DSM node is its own OS process talking
// over real sockets. Give every process the same -app/-proto/-page
// flags and the full -peers list (its own address included, in node
// id order), and its node id via -node. Omitting -node (or passing
// -1) makes dsmrun spawn the whole cluster itself on loopback — the
// one-command demo.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kv"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

func protocols() map[string]core.Protocol {
	m := make(map[string]core.Protocol)
	for _, p := range core.Protocols() {
		m[p.String()] = p
	}
	return m
}

func workloads(scale apps.Scale) map[string]apps.App {
	m := make(map[string]apps.App)
	for _, a := range apps.All(scale) {
		key := a.Name()
		if i := strings.IndexByte(key, '-'); i > 0 {
			key = key[:i]
		}
		m[key] = a
	}
	return m
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsmrun: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	appName := flag.String("app", "sor", "workload (see -list)")
	protoName := flag.String("proto", "lrc", "protocol (see -list)")
	nodes := flag.Int("nodes", 4, "cluster size")
	page := flag.Int("page", 1024, "page size in bytes")
	latency := flag.Duration("latency", 0, "per-message network latency (simulator only)")
	perByte := flag.Duration("perbyte", 0, "per-byte network cost (simulator only)")
	advise := flag.Bool("advise", false, "classify per-page sharing patterns (Munin-style)")
	medium := flag.Bool("medium", false, "use benchmark-scale workload sizes")
	chaosOn := flag.Bool("chaos", false, "inject network faults (drops, duplicates, partitions, stalls; simulator only)")
	seed := flag.Int64("seed", 1, "seed for jitter and fault injection")
	transportName := flag.String("transport", "sim", "message transport: sim (in-process simulator) or tcp (one OS process per node)")
	nodeID := flag.Int("node", -1, "with -transport tcp: this process's node id; -1 spawns the whole cluster on loopback")
	peers := flag.String("peers", "", "with -transport tcp: comma-separated host:port of every node, in id order")
	listenFD := flag.Uint("listen-fd", 0, "inherited listener file descriptor (set by the loopback demo for its children)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file (enables event tracing; tcp nodes write FILE.node<id>)")
	statsFmt := flag.String("stats", "table", "stats output format: table or json")
	debugAddr := flag.String("debug-addr", "", "with -transport tcp: serve the HTTP debug endpoint (stats, trace, histograms, pprof) on this address")
	sample := flag.Bool("sample", false, "run the metrics sampler (time-series ring; adds /metrics and /metrics.json to the debug endpoint)")
	flightDir := flag.String("flight-dir", "", "arm the flight recorder: dump a JSON bundle (samples, trace window, goroutines) here on a watchdog stall or abnormal exit")
	watch := flag.Bool("watch", false, "render a refreshing per-node metrics dashboard during the run (implies -sample)")
	slo := flag.Duration("slo", 10*time.Millisecond, "op-latency SLO target for the attainment gauge")
	qps := flag.Float64("qps", 0, "with -app kvstore: per-node open-loop target rate (0 = unpaced closed loop)")
	mixName := flag.String("mix", "", "with -app kvstore: op profile (read-heavy | write-heavy | mixed)")
	zipf := flag.Float64("zipf", -1, "with -app kvstore: Zipfian skew theta in (0,1); 0 selects the uniform distribution")
	keys := flag.Int("keys", 0, "with -app kvstore: key-space size (power of two; 0 = scale default)")
	ops := flag.Int("ops", 0, "with -app kvstore: per-node operation count (0 = scale default)")
	list := flag.Bool("list", false, "list workloads and protocols")
	flag.Parse()

	if *statsFmt != "table" && *statsFmt != "json" {
		fatal("-stats must be table or json, got %q", *statsFmt)
	}

	scale := apps.Small
	if *medium {
		scale = apps.Medium
	}
	if *list {
		fmt.Print("workloads: ")
		for name := range workloads(scale) {
			fmt.Printf("%s ", name)
		}
		fmt.Print("\nprotocols: ")
		for name := range protocols() {
			fmt.Printf("%s ", name)
		}
		fmt.Println("\ntransports: sim tcp")
		return
	}
	app, ok := workloads(scale)[*appName]
	if !ok {
		fatal("unknown app %q (try -list)", *appName)
	}
	var kvs *kv.Store
	if *appName == "kvstore" {
		kvs = kvFromFlags(scale, *seed, *qps, *mixName, *zipf, *keys, *ops)
		app = kvs
	} else {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "qps", "mix", "zipf", "keys", "ops":
				fatal("-%s is only meaningful with -app kvstore", f.Name)
			}
		})
	}
	proto, ok := protocols()[*protoName]
	if !ok {
		fatal("unknown protocol %q (try -list)", *protoName)
	}
	if (proto == core.EC || proto == core.ECDiff) && !app.LocksOnly() {
		fatal("%s is not lock-only; entry consistency requires bound data", app.Name())
	}

	obs := obsOpts{
		sample:    *sample || *watch,
		flightDir: *flightDir,
		watch:     *watch,
		slo:       *slo,
		qps:       *qps,
	}
	switch *transportName {
	case "sim":
		if *debugAddr != "" {
			fatal("-debug-addr is for -transport tcp; the simulator exposes everything in-process")
		}
		runSim(app, kvs, proto, *nodes, *page, *latency, *perByte, *advise, *chaosOn, *seed, *traceFile, *statsFmt, obs)
	case "tcp":
		if *chaosOn {
			fatal("-chaos is simulator-only (a real network brings its own faults)")
		}
		if *latency != 0 || *perByte != 0 {
			fatal("-latency/-perbyte model the simulator; the real network has real latency")
		}
		if *nodeID >= 0 {
			runTCPNode(app, kvs, proto, *page, *advise, *seed, *nodeID, *peers, *listenFD, *traceFile, *statsFmt, *debugAddr, obs)
		} else {
			runTCPDemo(*nodes, *peers, obs)
		}
	default:
		fatal("unknown transport %q (sim or tcp)", *transportName)
	}
}

// obsOpts carries the observability flags into the run modes.
type obsOpts struct {
	sample    bool
	flightDir string
	watch     bool
	slo       time.Duration
	qps       float64
}

// kvFromFlags builds the kvstore app from the serving flags, starting
// from the scale's defaults.
func kvFromFlags(scale apps.Scale, seed int64, qps float64, mixName string, zipf float64, keys, ops int) *kv.Store {
	base := kv.NewSmall()
	if scale == apps.Medium {
		base = kv.NewMedium()
	}
	p := base.Params()
	p.Seed = seed
	p.QPS = qps
	if mixName != "" {
		mix, err := loadgen.MixByName(mixName)
		if err != nil {
			fatal("%v", err)
		}
		p.Mix = mix
	}
	switch {
	case zipf == 0:
		p.Dist, p.Theta = loadgen.Uniform, 0
	case zipf > 0:
		p.Dist, p.Theta = loadgen.Zipfian, zipf
	}
	if keys != 0 {
		p.Keys = keys
	}
	if ops != 0 {
		p.Ops = ops
	}
	return kv.New(p)
}

// servingReport renders the kvstore per-node open-loop summaries:
// achieved rate against the target, and the backlog/late-op evidence
// of whether the node kept up with the schedule.
func servingReport(w io.Writer, kvs *kv.Store) {
	reports := kvs.Reports()
	if len(reports) == 0 {
		return
	}
	t := stats.NewTable("node", "ops", "gets", "puts", "dels", "target_qps", "achieved_qps", "max_backlog", "late_ops")
	for _, r := range reports {
		t.AddRow(r.Node, r.Ops, r.Gets, r.Puts, r.Dels, r.TargetQPS, r.AchievedQPS, r.MaxBacklog, r.LateOps)
	}
	fmt.Fprintf(w, "\nserving report (open-loop; op latencies incl. queueing delay are the \"op\" histogram class):\n%s", t.String())
}

// nodeJSON is one node's machine-readable stats entry.
type nodeJSON struct {
	Node       int                      `json:"node"`
	Counters   map[string]int64         `json:"counters"`
	Histograms []stats.HistogramSummary `json:"histograms,omitempty"`
}

// reportJSON is the -stats json document.
type reportJSON struct {
	App       string     `json:"app"`
	Protocol  string     `json:"protocol"`
	Nodes     int        `json:"nodes"`
	Page      int        `json:"page"`
	ElapsedMs float64    `json:"elapsed_ms"`
	Verify    string     `json:"verify"`
	PerNode   []nodeJSON `json:"per_node"`
	Total     nodeJSON   `json:"total"`
}

func counterMap(s stats.Snapshot) map[string]int64 {
	out := make(map[string]int64)
	for _, f := range s.Fields() {
		out[f.Name] = f.Value
	}
	return out
}

func nodeEntry(id int, s stats.Snapshot) nodeJSON {
	return nodeJSON{Node: id, Counters: counterMap(s), Histograms: stats.HistogramSummaries(*s.Lat)}
}

func printJSON(w io.Writer, app apps.App, proto core.Protocol, nodes, page int, elapsed time.Duration, verdict string, snaps []stats.Snapshot, firstNode int) error {
	rep := reportJSON{
		App:       app.Name(),
		Protocol:  proto.String(),
		Nodes:     nodes,
		Page:      page,
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		Verify:    verdict,
		Total:     nodeEntry(-1, stats.Sum(snaps)),
	}
	for i, s := range snaps {
		rep.PerNode = append(rep.PerNode, nodeEntry(firstNode+i, s))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// writeChromeFile dumps the streams as a Chrome trace-event file.
func writeChromeFile(path string, streams []trace.Stream) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	if err := trace.WriteChrome(f, streams); err != nil {
		f.Close()
		fatal("write trace: %v", err)
	}
	if err := f.Close(); err != nil {
		fatal("write trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "dsmrun: wrote %s (load at ui.perfetto.dev or chrome://tracing)\n", path)
}

// runSim is the classic mode: the whole cluster in this process over
// the simulated network.
func runSim(app apps.App, kvs *kv.Store, proto core.Protocol, nodes, page int, latency, perByte time.Duration, advise, chaosOn bool, seed int64, traceFile, statsFmt string, obs obsOpts) {
	cfg := core.Config{
		Nodes:      nodes,
		Protocol:   proto,
		PageSize:   page,
		HeapBytes:  1 << 22,
		Latency:    latency,
		PerByte:    perByte,
		Advise:     advise,
		Seed:       seed,
		EventTrace: traceFile != "",
	}
	var plan chaos.Plan
	if chaosOn {
		plan = chaos.DefaultPlan(nodes, seed)
		faults := plan.Faults
		cfg.Faults = &faults
		cfg.Retry = chaos.Retry()
		cfg.WatchdogTimeout = 30 * time.Second
	}
	// Arm the flight recorder before the cluster exists so the
	// watchdog hook lands in the Config (Dump is nil-safe until rec is
	// filled in below).
	var rec *metrics.Recorder
	if obs.flightDir != "" {
		cfg.OnStall = func(report string) { rec.Dump(report) }
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		fatal("%v", err)
	}
	defer c.Close()
	var smp *metrics.Sampler
	if obs.sample {
		smp = metrics.Start(metrics.Config{
			Node:   -1, // whole-cluster aggregate
			Source: c.TotalStats,
			// obs.qps is per node; the aggregate source drains nodes×qps.
			TargetOpsPerSec: obs.qps * float64(nodes),
			SLOTarget:       obs.slo,
		})
		defer smp.Stop()
	}
	if obs.flightDir != "" {
		rec = &metrics.Recorder{
			Dir:    obs.flightDir,
			Node:   -1,
			Digest: cfg.Digest(),
			Meta: map[string]string{
				"app":       app.Name(),
				"protocol":  proto.String(),
				"transport": "sim",
			},
			Sampler: smp,
			Streams: c.TraceStreams,
		}
	}
	stopWatch := make(chan struct{})
	if obs.watch {
		go func() {
			tick := time.NewTicker(time.Second)
			defer tick.Stop()
			for {
				select {
				case <-stopWatch:
					return
				case <-tick.C:
					metrics.RenderLocal(os.Stderr, smp.Window())
				}
			}
		}()
	}
	if err := app.Setup(c); err != nil {
		fatal("setup: %v", err)
	}
	var inj *chaos.Injector
	if chaosOn {
		inj = plan.Start(c)
	}
	start := time.Now()
	err = c.Run(app.Run)
	if inj != nil {
		inj.Stop()
	}
	close(stopWatch)
	if err != nil {
		if path, derr := rec.Dump("run: " + err.Error()); derr == nil && path != "" {
			fmt.Fprintf(os.Stderr, "dsmrun: flight bundle: %s (replay with dsmtrace -flight)\n", path)
		}
		fatal("run: %v", err)
	}
	elapsed := time.Since(start)
	verdict := "ok"
	if err := app.Verify(c); err != nil {
		verdict = err.Error()
	}
	if traceFile != "" {
		writeChromeFile(traceFile, c.TraceStreams())
	}
	if statsFmt == "json" {
		if err := printJSON(os.Stdout, app, proto, nodes, page, elapsed, verdict, c.Stats(), 0); err != nil {
			fatal("encode stats: %v", err)
		}
	} else {
		fmt.Printf("app=%s protocol=%s nodes=%d page=%d elapsed=%v verify=%s\n",
			app.Name(), proto, nodes, page, elapsed.Round(time.Microsecond), verdict)
		fmt.Printf("transport=%s %v\n\n", c.TransportName(), c.TransportCounters())
		fmt.Print(stats.PerNodeReport(c.Stats()))
		if kvs != nil {
			servingReport(os.Stdout, kvs)
		}
		if smp != nil {
			smp.Stop()
			fmt.Printf("\nmetrics window (cluster aggregate):\n")
			metrics.RenderLocal(os.Stdout, smp.Window())
			if bad := smp.Reconcile(c.TotalStats()); len(bad) != 0 {
				fmt.Printf("metrics reconcile mismatches: %v\n", bad)
			}
		}
		if chaosOn {
			fmt.Printf("\nfaults injected: %v\n", c.FaultStats())
		}
		if adv := c.Advisor(); adv != nil {
			fmt.Printf("\nsharing-pattern classification (Munin-style):\n%s", adv.Report())
		}
	}
	if verdict != "ok" {
		os.Exit(1)
	}
}

// runTCPNode hosts one node of a multi-process cluster.
func runTCPNode(app apps.App, kvs *kv.Store, proto core.Protocol, page int, advise bool, seed int64, self int, peers string, listenFD uint, traceFile, statsFmt, debugAddr string, obs obsOpts) {
	if peers == "" {
		fatal("-transport tcp -node %d needs -peers host:port,... for every node", self)
	}
	addrs := strings.Split(peers, ",")
	if self >= len(addrs) {
		fatal("-node %d out of range: %d peers listed", self, len(addrs))
	}
	var ln net.Listener
	if listenFD > 0 {
		var err error
		if ln, err = cluster.FileListener(uintptr(listenFD), "dsmrun-listener"); err != nil {
			fatal("inherited listener: %v", err)
		}
	}
	cfg := core.Config{
		Nodes:           len(addrs),
		Protocol:        proto,
		PageSize:        page,
		HeapBytes:       1 << 22,
		Advise:          advise,
		Seed:            seed,
		EventTrace:      traceFile != "" || debugAddr != "",
		WatchdogTimeout: 30 * time.Second,
	}
	start := time.Now()
	res, err := cluster.RunNode(cluster.NodeOpts{
		Cfg:       cfg,
		App:       app,
		Self:      self,
		Addrs:     addrs,
		Listener:  ln,
		Verify:    self == 0, // node 0 checks against the sequential reference
		DebugAddr: debugAddr,
		OnDebug: func(addr string) {
			fmt.Printf("node %d: debug endpoint http://%s\n", self, addr)
		},
		Sample:          obs.sample,
		TargetOpsPerSec: obs.qps,
		SLOTarget:       obs.slo,
		FlightDir:       obs.flightDir,
	})
	if err != nil {
		fatal("node %d: %v", self, err)
	}
	if traceFile != "" && res.Trace != nil {
		writeChromeFile(fmt.Sprintf("%s.node%d", traceFile, self), []trace.Stream{*res.Trace})
	}
	if statsFmt == "json" {
		if err := printJSON(os.Stdout, app, proto, len(addrs), page, res.Elapsed, "ok", []stats.Snapshot{res.Stats}, self); err != nil {
			fatal("encode stats: %v", err)
		}
		return
	}
	if self == 0 {
		fmt.Printf("app=%s protocol=%s nodes=%d page=%d elapsed=%v verify=ok\n",
			app.Name(), proto, len(addrs), page, res.Elapsed.Round(time.Microsecond))
		if res.HasChecksum {
			fmt.Printf("checksum=%016x\n", res.Checksum)
		}
	}
	fmt.Printf("node %d: transport=tcp %v total=%v\n", self, res.Net, time.Since(start).Round(time.Millisecond))
	fmt.Print(stats.PerNodeReport([]stats.Snapshot{res.Stats}))
	if kvs != nil {
		servingReport(os.Stdout, kvs)
	}
}

// prefixWriter labels each child's output lines with its node id so
// the demo's interleaved streams stay readable.
type prefixWriter struct {
	mu     *sync.Mutex
	prefix string
	buf    bytes.Buffer
}

func (w *prefixWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	for {
		line, err := w.buf.ReadString('\n')
		if err != nil {
			w.buf.WriteString(line) // incomplete line: keep for later
			break
		}
		fmt.Printf("%s%s", w.prefix, line)
	}
	return len(p), nil
}

// runTCPDemo spawns the whole cluster as child dsmrun processes on
// loopback: it pre-binds every node's port (no races, no fixed port
// list) and hands each child its listener as an inherited fd. With
// -watch it also reserves one debug port per child, passes it as that
// child's -debug-addr, and polls every endpoint into a live dashboard
// while the cluster runs.
func runTCPDemo(nodes int, peers string, obs obsOpts) {
	if peers != "" {
		fatal("either -node i -peers ... (join a cluster) or neither (spawn one locally)")
	}
	exe, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	lns := make([]net.Listener, nodes)
	addrs := make([]string, nodes)
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			fatal("%v", err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	// The dashboard needs to know each child's debug address before it
	// starts, so reserve ports up front: bind :0, record, release, and
	// pass the exact address. (The tiny rebind window is fine for a
	// demo; the DSM ports themselves use inherited fds.)
	var debugAddrs []string
	if obs.watch {
		for i := 0; i < nodes; i++ {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fatal("%v", err)
			}
			debugAddrs = append(debugAddrs, ln.Addr().String())
			ln.Close()
		}
	}
	fmt.Printf("spawning %d node processes on %s\n", nodes, strings.Join(addrs, " "))
	args := append([]string{}, os.Args[1:]...)
	var mu sync.Mutex
	cmds := make([]*exec.Cmd, nodes)
	for i := range cmds {
		f, err := cluster.ListenerFile(lns[i])
		if err != nil {
			fatal("%v", err)
		}
		childArgs := append(append([]string{}, args...),
			"-node", strconv.Itoa(i),
			"-peers", strings.Join(addrs, ","),
			"-listen-fd", "3")
		if obs.watch {
			// Appended last so it wins over any user-supplied :0 value.
			childArgs = append(childArgs, "-debug-addr", debugAddrs[i], "-sample")
		}
		cmd := exec.Command(exe, childArgs...)
		cmd.ExtraFiles = []*os.File{f}
		w := &prefixWriter{mu: &mu, prefix: fmt.Sprintf("[node %d] ", i)}
		cmd.Stdout = w
		cmd.Stderr = w
		if err := cmd.Start(); err != nil {
			fatal("spawn node %d: %v", i, err)
		}
		f.Close()
		lns[i].Close()
		cmds[i] = cmd
	}
	stopWatch := make(chan struct{})
	watchDone := make(chan struct{})
	if obs.watch {
		go func() {
			defer close(watchDone)
			// Plain append mode: the dashboard interleaves with the
			// children's prefixed output. cmd/dsmtop gives the
			// full-screen view.
			metrics.Watch(os.Stdout, debugAddrs, metrics.WatchOpts{Stop: stopWatch})
		}()
	}
	failed := false
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			fmt.Fprintf(os.Stderr, "dsmrun: node %d: %v\n", i, err)
			failed = true
		}
	}
	if obs.watch {
		close(stopWatch)
		<-watchDone
	}
	if failed {
		os.Exit(1)
	}
}
