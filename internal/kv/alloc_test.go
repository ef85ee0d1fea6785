package kv

import (
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/internal/wire"
)

// The kv serving loop's per-op bookkeeping — slot encode, latency
// record, pacer arrival — must cost zero allocations so the measured
// latencies are the DSM's, not the garbage collector's. These gates
// run under `make bench-alloc` alongside the wire/mem/trace ones.

// TestZeroAllocSlotEncode gates the slot image construction used on
// every Put/Delete: value derivation plus encode into a reused
// buffer.
func TestZeroAllocSlotEncode(t *testing.T) {
	buf := make([]byte, slotBytes)
	if n := testing.AllocsPerRun(1000, func() {
		w0, w1 := valueWords(17, 42)
		encodeSlot(buf, 3, stateLive, w0, w1)
	}); n != 0 {
		t.Fatalf("slot encode allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocOpRecord exercises the exact shape of the timed loop's
// per-op record: pacer arrival, the op body's buffer reslice, and the
// histogram observe.
func TestZeroAllocOpRecord(t *testing.T) {
	lat := &stats.LatHists{}
	p := loadgen.NewPacer(0) // unpaced: no sleeping inside AllocsPerRun
	p.Begin()
	bp := wire.GetBuf()
	defer wire.PutBuf(bp)
	for cap(*bp) < slotBytes {
		*bp = append((*bp)[:cap(*bp)], 0)
	}
	buf := (*bp)[:slotBytes]
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		arrival := p.Arrival(i)
		i++
		w0, w1 := valueWords(uint64(i), uint64(i)*3)
		encodeSlot(buf[:slotBytes], uint64(i), stateLive, w0, w1)
		lat.Op.Observe(time.Since(arrival).Nanoseconds())
	}); n != 0 {
		t.Fatalf("per-op record path allocates %.1f/op, want 0", n)
	}
}

func BenchmarkKVOpRecord(b *testing.B) {
	lat := &stats.LatHists{}
	p := loadgen.NewPacer(0)
	p.Begin()
	buf := make([]byte, slotBytes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arrival := p.Arrival(i)
		w0, w1 := valueWords(uint64(i), uint64(i)*3)
		encodeSlot(buf, uint64(i), stateLive, w0, w1)
		lat.Op.Observe(time.Since(arrival).Nanoseconds())
	}
}
