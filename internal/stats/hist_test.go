package stats

import "testing"

// Observe bumps count before the bucket add, so a concurrent Snapshot
// can be torn: Count briefly exceeds the bucket sum. Quantile must
// rank against the bucket total — ranking against Count walks past
// every bucket and silently reports MaxNs for all quantiles.
func TestQuantileTornSnapshot(t *testing.T) {
	var s HistSnapshot
	s.Count = 5 // two observations counted but not yet bucketed
	s.MaxNs = 1 << 30
	s.Buckets[10] = 3 // values in [512, 1024)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if got := s.Quantile(q); got >= 2048 {
			t.Fatalf("Quantile(%v) = %d on torn snapshot, want a bucket-10 value (< 2048)", q, got)
		}
	}
}

func TestQuantileEmptyBuckets(t *testing.T) {
	var s HistSnapshot
	s.Count = 1 // torn: counted, not yet bucketed
	s.MaxNs = 99
	if got := s.Quantile(0.5); got != 0 {
		t.Fatalf("Quantile on empty buckets = %d, want 0", got)
	}
}

// Sub must recover exactly the observations made between two
// snapshots, and clamp rather than go negative on torn input.
func TestHistSub(t *testing.T) {
	var h Hist
	for i := 0; i < 100; i++ {
		h.Observe(700)
	}
	before := h.Snapshot()
	for i := 0; i < 50; i++ {
		h.Observe(3000) // bucket 12
	}
	after := h.Snapshot()
	win := after.Sub(before)
	if win.Count != 50 {
		t.Fatalf("window count = %d, want 50", win.Count)
	}
	if win.Buckets[bucketOf(700)] != 0 {
		t.Fatalf("window kept %d pre-window observations", win.Buckets[bucketOf(700)])
	}
	if win.Buckets[bucketOf(3000)] != 50 {
		t.Fatalf("window bucket for 3000ns = %d, want 50", win.Buckets[bucketOf(3000)])
	}
	if win.SumNs != 50*3000 {
		t.Fatalf("window sum = %d, want %d", win.SumNs, 50*3000)
	}
	// Torn input: the subtrahend claims more than the minuend has.
	torn := before.Sub(after)
	if torn.Count != 0 || torn.SumNs != 0 {
		t.Fatalf("reverse Sub went negative: count=%d sum=%d", torn.Count, torn.SumNs)
	}
}

func TestFractionBelow(t *testing.T) {
	var h Hist
	for i := 0; i < 90; i++ {
		h.Observe(700) // bucket [512, 1024)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 << 20) // far above any reasonable target
	}
	s := h.Snapshot()
	if got := s.FractionBelow(1 << 30); got != 1 {
		t.Fatalf("FractionBelow(huge) = %v, want 1", got)
	}
	if got := s.FractionBelow(1024); got < 0.85 || got > 0.95 {
		t.Fatalf("FractionBelow(1024) = %v, want ~0.9", got)
	}
	if got := s.FractionBelow(1); got > 0.01 {
		t.Fatalf("FractionBelow(1) = %v, want ~0", got)
	}
	var empty HistSnapshot
	if got := empty.FractionBelow(1000); got != 1 {
		t.Fatalf("empty FractionBelow = %v, want 1 (no ops, no misses)", got)
	}
	// The straddling bucket interpolates: a target in the middle of the
	// only occupied bucket yields a fraction strictly inside (0, 1).
	if got := s.FractionBelow(768); got <= 0 || got >= 0.9 {
		t.Fatalf("straddling FractionBelow = %v, want interpolated in (0, 0.9)", got)
	}
}

func TestQuantileConsistentSnapshot(t *testing.T) {
	var h Hist
	for i := 0; i < 1000; i++ {
		h.Observe(700) // bucket 10
	}
	h.Observe(1 << 20) // one outlier
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 512 || p50 >= 1024 {
		t.Fatalf("p50 = %d, want within [512, 1024)", p50)
	}
	if p100 := s.Quantile(1); p100 != s.MaxNs && p100 < 1<<20 {
		t.Fatalf("p100 = %d, want the outlier bucket (or MaxNs clamp)", p100)
	}
}

// A q-quantile resolves only with at least 10/(1-q) observations: an
// E15-sized cell of 1,200 ops reports p99 but not p999.
func TestQuantileResolution(t *testing.T) {
	var h Hist
	for i := 0; i < 1200; i++ {
		h.Observe(int64(1000 + i))
	}
	s := h.Snapshot()
	for q, want := range map[float64]bool{0.5: true, 0.9: true, 0.99: true, 0.999: false} {
		if got := s.Resolves(q); got != want {
			t.Errorf("1200 samples: Resolves(%v) = %v, want %v", q, got, want)
		}
	}
	if s.QuantileCell(0.999) != "-" || s.QuantileUs(0.999) != nil {
		t.Fatalf("unresolved p999 rendered as %v", s.QuantileCell(0.999))
	}
	if v := s.QuantileUs(0.99); v == nil || *v <= 0 {
		t.Fatalf("resolved p99 = %v", v)
	}
	// The thresholds themselves: 20 for p50, 100 for p90, 1,000 for
	// p99, 10,000 for p999.
	for q, n := range map[float64]int64{0.5: 20, 0.9: 100, 0.99: 1000, 0.999: 10000} {
		if !(HistSnapshot{Count: n}).Resolves(q) || (HistSnapshot{Count: n - 1}).Resolves(q) {
			t.Errorf("Resolves(%v) threshold is not %d", q, n)
		}
	}
}

// HistogramSummaries must skip classes with no observations, keep the
// populated ones in report order, and omit the quantiles a class
// cannot resolve.
func TestHistogramSummariesSkipsEmpty(t *testing.T) {
	var lat LatHists
	if got := HistogramSummaries(lat.Snapshot()); len(got) != 0 {
		t.Fatalf("all-empty snapshot produced %d summaries", len(got))
	}
	lat.Fault.Observe(1000)
	for i := 0; i < 20; i++ {
		lat.Op.Observe(2000 + int64(i)*100)
	}
	got := HistogramSummaries(lat.Snapshot())
	if len(got) != 2 {
		t.Fatalf("got %d summaries, want 2 (empty classes skipped): %+v", len(got), got)
	}
	if got[0].Class != "fault" || got[0].Count != 1 || got[0].P50Us != nil {
		t.Fatalf("first summary %+v, want fault count 1 with no resolved quantile", got[0])
	}
	if got[1].Class != "op" || got[1].Count != 20 {
		t.Fatalf("second summary %+v, want op count 20", got[1])
	}
	if got[1].P50Us == nil || *got[1].P50Us <= 0 || got[1].MaxUs < *got[1].P50Us {
		t.Fatalf("op summary p50 inconsistent: %+v", got[1])
	}
	if got[1].P90Us != nil || got[1].P99Us != nil || got[1].P999Us != nil {
		t.Fatalf("op summary reports tail quantiles from 20 samples: %+v", got[1])
	}
}
