// Command perfbench is the repository's benchmark: it runs one
// workload on the DSM, checks every result for correctness, and
// prints each metric by name with its unit, ending with one JSON line
// a harness comparing runs reads. See README.md for the workloads, the
// metrics and how each layer metric relates to the end-to-end ones.
//
//	bash perfbench/run.sh --workload kv-read-tcp --seed 7 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 is
// the separate traced run that prints the per-layer metrics and writes
// the benchmark's spans to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/kv"
)

// metric is one reported quantity.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the DSM sees, printed by untraced
// runs. An "op" is one kv Get/Put/Delete on the kv workloads and one
// full SOR sweep on sor-lrc.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"msgs_per_op", "msgs"},
	{"bytes_per_op", "B"},
	{"allocs_per_op", "allocs"},
	{"heap_mb", "MiB"},
}

// perLayer are the metrics of single layers, printed by traced runs.
// A layer a workload does not exercise reads 0 there.
var perLayer = []metric{
	{"kv.op_us_p99", "us"},
	{"kv.get_us_p50", "us"}, {"kv.get_us_p99", "us"},
	{"kv.put_us_p50", "us"}, {"kv.put_us_p99", "us"},
	{"dsync.lock_wait_us_p50", "us"}, {"dsync.lock_wait_us_p99", "us"},
	{"dsync.acquires_per_op", "count"}, {"dsync.barrier_wait_ms_per_sweep", "ms"},
	{"nodecore.rpc_us_p50", "us"}, {"nodecore.rpc_us_p99", "us"},
	{"nodecore.fault_us_p50", "us"}, {"nodecore.fault_us_p99", "us"},
	{"nodecore.faults_per_op", "count"}, {"nodecore.accesses_per_op", "count"},
	{"nodecore.retries_per_op", "count"}, {"nodecore.dup_requests_per_op", "count"},
	{"nodecore.late_replies_per_op", "count"},
	{"nodecore.hit_read_ns", "ns"}, {"nodecore.hit_write_ns", "ns"}, {"nodecore.hit_allocs", "allocs"},
	{"sc.invalidations_per_op", "count"}, {"sc.page_transfers_per_op", "count"},
	{"lrc.diffs_per_sweep", "count"}, {"lrc.diff_bytes_per_sweep", "B"},
	{"lrc.diff_fetches_per_sweep", "count"}, {"lrc.write_notices_per_sweep", "count"},
	{"lrc.twins_per_sweep", "count"},
	{"proto.sc_write_fault_pingpong_us", "us"}, {"proto.sc_write_fault_pingpong_allocs", "allocs"},
	{"proto.lrc_lock_pingpong_us", "us"}, {"proto.lrc_lock_pingpong_allocs", "allocs"},
	{"mem.diff_create_ns", "ns"}, {"mem.diff_apply_ns", "ns"},
	{"wire.bytes_per_msg", "B"}, {"wire.encode_ns", "ns"}, {"wire.decode_ns", "ns"},
	{"transport.msgs_per_op", "msgs"}, {"transport.bytes_per_op", "B"},
	{"tcp.redials", "count"}, {"tcp.send_errors", "count"},
	{"simnet.dropped_per_op", "count"}, {"simnet.duplicated_per_op", "count"},
	{"simnet.rtt_us", "us"}, {"tcp.rtt_us", "us"},
	{"loadgen.slo_qps", "ops/s/node"}, {"loadgen.lag_us_p99", "us"}, {"loadgen.late_frac", "ratio"},
	{"loadgen.sleep_overshoot_us", "us"},
	{"core.cluster_setup_ms", "ms"}, {"app.setup_ms", "ms"},
	{"go.goroutines_max", "count"}, {"go.gc_cycles_per_op", "count"},
	{"trace.overhead_frac", "ratio"},
}

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// README.md give the reason for each.
type workload struct {
	name string
	run  func(o options) (*result, error)
}

var workloads = []workload{
	{kvReadTCP.name, kvReadTCP.run},
	{kvWrite.name, kvWrite.run},
	{kvChaos.name, kvChaos.run},
	{"sor-lrc", runSOR},
}

// sizes fixes how much work a run does besides its measured time.
type sizes struct {
	setups      int           // set-ups timed per run; setup_s is their median
	refOps      int           // ops per node of the kv reference pass
	samples     int           // least ops a kv pass must time: 1000 leave ten beyond its p99
	rung        time.Duration // length of one open-loop rung
	sorGrid     int           // SOR grid side
	sorSweeps   int           // sweeps per SOR episode
	minEpisodes int           // least SOR episodes per phase; a run has 1.5 per second measured
	probe       time.Duration // time budget of one layer probe
}

var fullSize = sizes{
	setups: 15, refOps: 200, samples: 1000, rung: 800 * time.Millisecond,
	sorGrid: 256, sorSweeps: 24, minEpisodes: 4, probe: 200 * time.Millisecond,
}

// options configure one run.
type options struct {
	seed    int64
	measure time.Duration // length of the measured phase
	traced  bool
	out     string // where the traced run writes its spans
	sz      sizes
	// refSum returns the checksum a kv reference pass must produce;
	// tests replace it to check that a mismatch is reported.
	refSum func(p kv.Params) (uint64, error)
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	problems          []string
	metrics           map[string]float64
	meta              map[string]any
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, meta: map[string]any{}}
}

// fail records ops that errored or belonged to a pass whose result
// did not verify.
func (r *result) fail(ops int64, err error) {
	r.failed += ops
	r.problems = append(r.problems, err.Error())
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced run, per-layer metrics")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	o := options{
		seed:    *seed,
		measure: time.Duration(*seconds) * time.Second,
		traced:  *traceMode == 1,
		out:     *out,
		sz:      fullSize,
		refSum:  simReferenceSum,
	}
	warmCPUs(1500 * time.Millisecond)
	res, err := w.run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.meta["workload"] = w.name
	res.meta["seed"] = o.seed
	res.meta["trace"] = *traceMode
	res.meta["go"] = runtime.Version()
	res.meta["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.meta["nproc"] = runtime.NumCPU()
	res.meta["commit"] = commit()
	if err := report(os.Stdout, res, o.traced); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, " | ")
}

// report prints the run's metadata and every declared metric by name
// with its unit, then the result line. A declared metric the run did
// not produce is an error unless the run already failed.
func report(f *os.File, r *result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, p := range r.problems {
		fmt.Fprintf(f, "FAILED %s\n", p)
	}
	meta, err := json.Marshal(r.meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "meta %s\n", meta)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range defs {
		v, ok := r.metrics[m.name]
		if !ok {
			if r.correct() {
				return fmt.Errorf("metric %s was not measured", m.name)
			}
			continue
		}
		fmt.Fprintf(f, "%-40s %14.6g %s\n", m.name, v, m.unit)
		metrics[m.name] = value{v, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "%s\n", line)
	return nil
}

// commit names the checked-out commit when run from a git checkout.
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	id, err := os.ReadFile(filepath.Join(".git", strings.TrimPrefix(ref, "ref: ")))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}
