package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/transport"
)

// resolves reports whether n samples leave at least ten beyond the
// q-quantile, the least a reported percentile needs.
func resolves(n int, q float64) bool { return float64(n)*(1-q) >= 10 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us[T int64 | float64](ns T) float64 { return float64(ns) / 1e3 }

// window is what one measured phase cost the process and the DSM:
// counter deltas read at the phase's boundaries.
type window struct {
	wall    time.Duration
	st      stats.Snapshot
	net     transport.CountersSnapshot
	mallocs uint64
	gcs     uint32
}

// mark is one boundary reading of the counters a window subtracts.
type mark struct {
	at  time.Time
	st  stats.Snapshot
	net transport.CountersSnapshot
	ms  runtime.MemStats
}

func takeMark(d *dsm) *mark {
	m := &mark{}
	runtime.ReadMemStats(&m.ms)
	m.st, m.net = d.counters()
	m.at = time.Now()
	return m
}

// since closes the window opened by m.
func (m *mark) since(d *dsm) window {
	wall := time.Since(m.at)
	st, tc := d.counters()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w := window{
		wall:    wall,
		st:      st.Sub(m.st),
		mallocs: ms.Mallocs - m.ms.Mallocs,
		gcs:     ms.NumGC - m.ms.NumGC,
	}
	w.net = transport.CountersSnapshot{
		MsgsSent:   tc.MsgsSent - m.net.MsgsSent,
		BytesSent:  tc.BytesSent - m.net.BytesSent,
		MsgsRecv:   tc.MsgsRecv - m.net.MsgsRecv,
		BytesRecv:  tc.BytesRecv - m.net.BytesRecv,
		Redials:    tc.Redials - m.net.Redials,
		SendErrors: tc.SendErrors - m.net.SendErrors,
	}
	return w
}

// sumWindows adds windows up.
func sumWindows(ws []window) window {
	var t window
	for _, w := range ws {
		t.wall += w.wall
		t.st = t.st.Add(w.st)
		t.net = t.net.Add(w.net)
		t.mallocs += w.mallocs
		t.gcs += w.gcs
	}
	return t
}

// liveHeapMiB forces a collection and returns the live heap. The
// second collection frees what sync.Pool victim caches kept alive.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// warmCPUs keeps every CPU busy for d. The CPUs of small virtual
// machines run at about half speed for the first second of work after
// sitting idle; timing starts after this ramp.
func warmCPUs(d time.Duration) {
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(1)
			for time.Now().Before(deadline) {
				for j := 0; j < 1000; j++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
			spinSink.Add(x)
		}()
	}
	wg.Wait()
}

var spinSink atomic.Uint64

// goroutineMax samples runtime.NumGoroutine from outside the program
// until stopped, keeping the maximum.
type goroutineMax struct {
	stop chan struct{}
	done chan struct{}
	max  int
}

func watchGoroutines() *goroutineMax {
	g := &goroutineMax{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			g.max = max(g.max, runtime.NumGoroutine())
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

// Stop ends sampling and returns the maximum seen.
func (g *goroutineMax) Stop() int {
	close(g.stop)
	<-g.done
	return g.max
}

// span is one timed call into a layer's public function, recorded by
// the benchmark around the call. Start and End are nanoseconds since
// the run began; Parent is the index of the enclosing span (-1 for
// none); Op identifies the operation (node<<32 | index in its stream)
// for per-op spans, -1 otherwise.
type span struct {
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"`
	Op     int64            `json:"op"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a top-level span and returns its index for end and as
// a parent.
func (l *spanLog) begin(name string) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.epoch).Nanoseconds(), Parent: -1, Op: -1})
	return len(l.spans) - 1
}

// end closes span i, attaching the counter deltas taken at its
// boundaries.
func (l *spanLog) end(i int, counts map[string]int64) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].End = time.Since(l.epoch).Nanoseconds()
	l.spans[i].Counts = counts
}

// add appends finished spans (per-op spans, gathered after a phase).
func (l *spanLog) add(s ...span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s...)
}

// windowCounts is the counter set attached to phase spans.
func windowCounts(w window) map[string]int64 {
	return map[string]int64{
		"msgs_sent":     w.st.MsgsSent,
		"bytes_sent":    w.st.BytesSent,
		"faults":        w.st.Faults(),
		"accesses":      w.st.Reads + w.st.Writes,
		"lock_acquires": w.st.LockAcquires,
		"barrier_waits": w.st.BarrierWaits,
		"retries":       w.st.Retries,
		"mallocs":       int64(w.mallocs),
	}
}

// write stores the spans as JSON in dir.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(l.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
