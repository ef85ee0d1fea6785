package metrics

import (
	"io"
	"testing"
	"time"

	"repro/internal/stats"
)

// The sampler-off contract: a nil *Sampler is what every hot path and
// shutdown path sees when -sample is off, and it must cost zero
// allocations. These gates run under `make bench-alloc` alongside the
// trace and wire ones.

func TestZeroAllocNilSampler(t *testing.T) {
	var s *Sampler
	if n := testing.AllocsPerRun(1000, func() {
		s.Stop()
		if s.Node() != -1 {
			t.Fatal("nil sampler node")
		}
		if s.Samples() != nil {
			t.Fatal("nil sampler samples")
		}
	}); n != 0 {
		t.Fatalf("nil-sampler methods allocate %.1f/op, want 0", n)
	}
}

func TestZeroAllocNilRecorder(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		r.Dump("unused")
		if r.Path() != "" {
			t.Fatal("nil recorder path")
		}
	}); n != 0 {
		t.Fatalf("nil-recorder Dump allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocDisabledGuard exercises the exact call-site shape the
// serving loop uses when sampling is off: the sampler is nil, the
// counters are still maintained (that's the stats layer's job), and
// no metrics code runs at all.
func TestZeroAllocDisabledGuard(t *testing.T) {
	var s *Sampler
	var lat stats.LatHists
	if n := testing.AllocsPerRun(1000, func() {
		lat.Op.Observe(12345)
		if s != nil {
			t.Fatal("unreachable")
		}
	}); n != 0 {
		t.Fatalf("disabled sampling guard allocates %.1f/op, want 0", n)
	}
}

func BenchmarkSampleOnce(b *testing.B) {
	var node stats.Node
	node.Lat.Op.Observe(1000)
	s := &Sampler{cfg: Config{Window: DefaultWindow, Source: node.Snapshot, TargetOpsPerSec: 1000}, ring: make([]Sample, 0, DefaultWindow)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		node.MsgsSent.Add(1)
		s.sampleAt(int64(i+1) * int64(time.Millisecond))
	}
}

func BenchmarkWindow(b *testing.B) {
	var node stats.Node
	s := &Sampler{cfg: Config{Window: DefaultWindow, Source: node.Snapshot, SLOTarget: DefaultSLOTarget}, ring: make([]Sample, 0, DefaultWindow)}
	for i := 0; i < DefaultWindow; i++ {
		node.MsgsSent.Add(3)
		node.Lat.Op.Observe(int64(i+1) * 1000)
		s.sampleAt(int64(i+1) * int64(time.Millisecond))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Window()
	}
}

func BenchmarkPromWrite(b *testing.B) {
	var node stats.Node
	s := &Sampler{cfg: Config{Window: DefaultWindow, Source: node.Snapshot, SLOTarget: DefaultSLOTarget}, ring: make([]Sample, 0, DefaultWindow)}
	for i := 0; i < 32; i++ {
		node.MsgsSent.Add(3)
		node.Lat.Op.Observe(int64(i+1) * 1000)
		s.sampleAt(int64(i+1) * int64(time.Millisecond))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.WriteProm(io.Discard)
	}
}
