package trace

import (
	"testing"
	"time"

	"repro/internal/stats"
)

// The disabled-tracing hot path must cost zero allocations: these
// gates run under `make bench-alloc` alongside the wire/mem ones.

func TestZeroAllocDisabledEmit(t *testing.T) {
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvSend, 1, 42, 3, -1, 0, 0)
	}); n != 0 {
		t.Fatalf("nil-tracer Emit allocates %.1f/op, want 0", n)
	}
}

func TestZeroAllocEnabledEmit(t *testing.T) {
	tr := New(0, 4, 1024)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvSend, 1, 42, 3, -1, 0, 0)
	}); n != 0 {
		t.Fatalf("enabled Emit allocates %.1f/op, want 0", n)
	}
}

func TestZeroAllocHistObserve(t *testing.T) {
	var h stats.Hist
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	}); n != 0 {
		t.Fatalf("Hist.Observe allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocDisabledGuard exercises the exact shape the
// instrumented call sites use when tracing is off: nil-tracer Emits
// around a timed section whose latency is always observed.
func TestZeroAllocDisabledGuard(t *testing.T) {
	var lat stats.LatHists
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvFaultBegin, -1, 0, 3, -1, 0, 0)
		start := time.Now()
		d := time.Since(start)
		lat.Fault.Observe(d.Nanoseconds())
		tr.Emit(EvFaultEnd, -1, 0, 3, -1, 0, d)
	}); n != 0 {
		t.Fatalf("disabled instrumentation guard allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocDisabledAccessGuard exercises the exact shape of the
// access-event emission sites in nodecore's read/write chunk loops
// when access tracing is off (the default): a nil check must skip the
// hash and emit entirely.
func TestZeroAllocDisabledAccessGuard(t *testing.T) {
	var tr *Tracer
	buf := make([]byte, 256)
	if n := testing.AllocsPerRun(1000, func() {
		if tr != nil {
			tr.Emit(EvRead, -1, HashBytes(buf[0:64]), 3, -1, AccessArg(0, 64), 0)
		}
	}); n != 0 {
		t.Fatalf("disabled access-trace guard allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocEnabledAccessEmit gates the enabled path: hashing the
// accessed bytes and emitting the event must both stay on the stack.
func TestZeroAllocEnabledAccessEmit(t *testing.T) {
	tr := New(0, 4, 1024)
	buf := make([]byte, 256)
	if n := testing.AllocsPerRun(1000, func() {
		tr.Emit(EvRead, -1, HashBytes(buf[8:72]), 3, -1, AccessArg(8, 64), 0)
	}); n != 0 {
		t.Fatalf("enabled access emit allocates %.1f/op, want 0", n)
	}
}

func BenchmarkEmitDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(EvSend, 1, uint64(i), 3, -1, 0, 0)
	}
}

func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(0, 4, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(EvSend, 1, uint64(i), 3, -1, 0, 0)
	}
}

func BenchmarkHistObserve(b *testing.B) {
	var h stats.Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i)*7 + 1)
	}
}

func BenchmarkAccessEmit(b *testing.B) {
	tr := New(0, 4, 1<<14)
	buf := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(EvRead, -1, HashBytes(buf[0:64]), 3, -1, AccessArg(0, 64), 0)
	}
}
