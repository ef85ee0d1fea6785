package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// The flight recorder: when the core watchdog declares a stall, or a
// node exits abnormally, the evidence should not die with the
// process. A Recorder captures the last window of metrics samples,
// the trace ring, a goroutine profile, and the run's identity into
// one JSON bundle on disk, replayable offline with
// `dsmtrace -flight FILE`.

// BundleVersion is the flight-bundle format version.
const BundleVersion = 1

// Bundle is the on-disk flight-recorder capture.
type Bundle struct {
	Version        int               `json:"version"`
	Reason         string            `json:"reason"`
	Node           int32             `json:"node"` // -1: whole-cluster (simulator) capture
	CapturedUnixNs int64             `json:"captured_unix_ns"`
	ConfigDigest   string            `json:"config_digest"`
	Meta           map[string]string `json:"meta,omitempty"`
	Samples        []Sample          `json:"samples"`
	Traces         []trace.Stream    `json:"traces,omitempty"`
	Goroutines     string            `json:"goroutines,omitempty"`
}

// Recorder arms flight capture for one node (or one simulator
// cluster). All fields are set once before use; Dump may then be
// called from the watchdog hook and the exit path concurrently —
// only the first call writes.
type Recorder struct {
	// Dir receives the bundle files; required.
	Dir string
	// Node labels the capture (-1 for a simulator-wide recorder).
	Node int32
	// Digest is the run's core.Config digest.
	Digest uint64
	// Meta carries free-form identity (app, protocol, transport...).
	Meta map[string]string
	// Sampler supplies the sample window; may be nil (bundle carries
	// no samples).
	Sampler *Sampler
	// Streams supplies the trace rings at capture time; may be nil.
	Streams func() []trace.Stream

	dumped atomic.Bool
	path   atomic.Pointer[string]
}

// Dump captures a bundle and writes it to Dir, returning the file
// path. Subsequent calls (a watchdog fire followed by the abnormal
// exit it provokes) are no-ops returning the first path. Nil-safe.
func (r *Recorder) Dump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	if !r.dumped.CompareAndSwap(false, true) {
		if p := r.path.Load(); p != nil {
			return *p, nil
		}
		return "", nil
	}
	b := &Bundle{
		Version:        BundleVersion,
		Reason:         reason,
		Node:           r.Node,
		CapturedUnixNs: time.Now().UnixNano(),
		ConfigDigest:   fmt.Sprintf("%016x", r.Digest),
		Meta:           r.Meta,
		Samples:        r.Sampler.Samples(),
	}
	if r.Streams != nil {
		b.Traces = r.Streams()
	}
	var g strings.Builder
	if p := pprof.Lookup("goroutine"); p != nil {
		p.WriteTo(&g, 1)
	}
	b.Goroutines = g.String()
	if err := os.MkdirAll(r.Dir, 0o755); err != nil {
		return "", fmt.Errorf("metrics: flight dir: %w", err)
	}
	name := fmt.Sprintf("flight-node%d-%d.json", r.Node, b.CapturedUnixNs)
	path := filepath.Join(r.Dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("metrics: flight bundle: %w", err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return "", fmt.Errorf("metrics: flight bundle: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("metrics: flight bundle: %w", err)
	}
	r.path.Store(&path)
	return path, nil
}

// Path returns the written bundle path, or "" if Dump never ran.
func (r *Recorder) Path() string {
	if r == nil {
		return ""
	}
	if p := r.path.Load(); p != nil {
		return *p
	}
	return ""
}

// LoadBundle reads a flight bundle from disk.
func LoadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var b Bundle
	if err := json.NewDecoder(f).Decode(&b); err != nil {
		return nil, fmt.Errorf("metrics: %s: %w", path, err)
	}
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("metrics: %s: bundle version %d, want %d", path, b.Version, BundleVersion)
	}
	return &b, nil
}

// WriteFlightReport renders a bundle for a terminal: the capture
// reason (the watchdog's stall report, which names the stuck calls
// and their peers), run identity, the sampled rate series, the tail
// of the causal timeline, and the goroutine census. dsmtrace -flight
// is a thin wrapper over this.
func WriteFlightReport(w io.Writer, b *Bundle) error {
	fmt.Fprintf(w, "=== flight bundle: node %d, captured %s ===\n", b.Node,
		time.Unix(0, b.CapturedUnixNs).UTC().Format(time.RFC3339))
	fmt.Fprintf(w, "config digest %s\n", b.ConfigDigest)
	if len(b.Meta) > 0 {
		keys := make([]string, 0, len(b.Meta))
		for k := range b.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %s: %s\n", k, b.Meta[k])
		}
	}
	fmt.Fprintf(w, "\nreason:\n%s\n", indent(strings.TrimRight(b.Reason, "\n"), "  "))
	writeSampleSeries(w, b.Samples)
	if len(b.Traces) > 0 {
		events := 0
		for _, s := range b.Traces {
			events += len(s.Events)
		}
		fmt.Fprintf(w, "\ntrace window (%d events, tail of merged timeline):\n", events)
		merged := trace.Merge(b.Traces)
		const tail = 40
		if len(merged) > tail {
			fmt.Fprintf(w, "  ... %d earlier events elided ...\n", len(merged)-tail)
			merged = merged[len(merged)-tail:]
		}
		if err := trace.WriteTimeline(w, merged); err != nil {
			return err
		}
	}
	if b.Goroutines != "" {
		head, n := goroutineCensus(b.Goroutines)
		fmt.Fprintf(w, "\ngoroutines at capture: %d\n%s", n, indent(head, "  "))
	}
	return nil
}

// writeSampleSeries renders the sample window as a rate table,
// downsampled to at most 24 rows.
func writeSampleSeries(w io.Writer, samples []Sample) {
	if len(samples) < 2 {
		fmt.Fprintf(w, "\nsamples: %d (no rate window)\n", len(samples))
		return
	}
	t := stats.NewTable("t_ms", "msgs/s", "faults/s", "ops/s", "backlog", "msgs_sent", "retries")
	stride := 1
	if n := len(samples) - 1; n > 24 {
		stride = (n + 23) / 24
	}
	for i := stride; i < len(samples); i += stride {
		prev, cur := samples[i-stride], samples[i]
		dt := float64(cur.UnixNs-prev.UnixNs) / 1e9
		if dt <= 0 {
			continue
		}
		d := cur.Snap.Sub(prev.Snap)
		t.AddRow(float64(cur.UnixNs-samples[0].UnixNs)/1e6,
			float64(d.MsgsSent)/dt, float64(d.Faults())/dt, float64(d.Lat.Op.Count)/dt,
			cur.Backlog, cur.Snap.MsgsSent, cur.Snap.Retries)
	}
	fmt.Fprintf(w, "\nsample window (%d samples):\n%s", len(samples), t.String())
}

// goroutineCensus returns the profile's per-stack summary lines and
// the total goroutine count.
func goroutineCensus(profile string) (string, int) {
	total := 0
	var b strings.Builder
	for _, line := range strings.Split(profile, "\n") {
		if n, ok := strings.CutPrefix(line, "goroutine profile: total "); ok {
			fmt.Sscanf(n, "%d", &total)
			continue
		}
		// Summary lines look like "12 @ 0x... 0x..." — keep the counts,
		// drop the stacks (the JSON bundle retains them in full).
		if len(line) > 0 && line[0] >= '0' && line[0] <= '9' && strings.Contains(line, " @ ") {
			b.WriteString(line[:strings.Index(line, " @ ")] + " goroutines at one stack\n")
		}
	}
	return b.String(), total
}

func indent(s, prefix string) string {
	if s == "" {
		return s
	}
	return prefix + strings.ReplaceAll(s, "\n", "\n"+prefix) + "\n"
}
