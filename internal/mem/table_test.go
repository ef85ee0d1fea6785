package mem

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable(1024, 100); err == nil {
		t.Error("non-power-of-two page size accepted")
	}
	if _, err := NewTable(1024, 0); err == nil {
		t.Error("zero page size accepted")
	}
	if _, err := NewTable(0, 256); err == nil {
		t.Error("zero heap accepted")
	}
	if _, err := NewTable(-5, 256); err == nil {
		t.Error("negative heap accepted")
	}
}

func TestTableRoundsHeapUp(t *testing.T) {
	tbl, err := NewTable(1000, 256)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumPages() != 4 {
		t.Fatalf("NumPages = %d, want 4", tbl.NumPages())
	}
	if tbl.HeapBytes() != 1024 {
		t.Fatalf("HeapBytes = %d, want 1024", tbl.HeapBytes())
	}
}

func TestPageOf(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	cases := []struct {
		addr int64
		page PageID
		off  int
	}{
		{0, 0, 0}, {255, 0, 255}, {256, 1, 0}, {1023, 3, 255},
	}
	for _, c := range cases {
		pg, off := tbl.PageOf(c.addr)
		if pg != c.page || off != c.off {
			t.Errorf("PageOf(%d) = (%d,%d), want (%d,%d)", c.addr, pg, off, c.page, c.off)
		}
	}
}

func TestPageOfOutOfRangePanics(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range address")
		}
	}()
	tbl.PageOf(1024)
}

// walk collects the chunks of [addr, addr+n) as the Chunk/Next loop
// yields them.
func walk(tbl *Table, addr int64, n int) []Chunk {
	var out []Chunk
	for c := tbl.Chunk(addr, n); c.Len > 0; c = tbl.Next(c, n) {
		out = append(out, c)
	}
	return out
}

func TestSplitSinglePage(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	if c := tbl.Chunk(10, 20); c.Len != 20 {
		t.Fatalf("Chunk(10, 20) = %+v, want the whole range", c)
	}
	chunks := walk(tbl, 10, 20)
	if len(chunks) != 1 {
		t.Fatalf("chunks = %v", chunks)
	}
	if c := chunks[0]; c.Page != 0 || c.Off != 10 || c.Pos != 0 || c.Len != 20 {
		t.Fatalf("chunk = %+v", c)
	}
}

func TestSplitSpansPages(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	chunks := walk(tbl, 250, 300)
	want := []Chunk{
		{Page: 0, Off: 250, Pos: 0, Len: 6},
		{Page: 1, Off: 0, Pos: 6, Len: 256},
		{Page: 2, Off: 0, Pos: 262, Len: 38},
	}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %v", chunks)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Errorf("chunk %d = %+v, want %+v", i, chunks[i], want[i])
		}
	}
}

// TestSplitCoversQuick: the chunk walk tiles the range exactly, in
// order, without gaps or overlaps.
func TestSplitCoversQuick(t *testing.T) {
	tbl, _ := NewTable(1<<16, 512)
	f := func(a uint16, l uint16) bool {
		addr := int64(a)
		n := int(l)
		if addr+int64(n) > tbl.HeapBytes() {
			n = int(tbl.HeapBytes() - addr)
		}
		pos := 0
		cur := addr
		for _, c := range walk(tbl, addr, n) {
			if c.Pos != pos || c.Len <= 0 {
				return false
			}
			pg, off := tbl.PageOf(cur)
			if c.Page != pg || c.Off != off {
				return false
			}
			pos += c.Len
			cur += int64(c.Len)
		}
		return pos == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestChunkOutsideHeapPanics: a range that leaves the heap panics
// with its bounds, even when its first byte is inside.
func TestChunkOutsideHeapPanics(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	for _, r := range [][2]int64{{-8, 8}, {1020, 8}, {1024, 1}} {
		want := fmt.Sprintf("mem: range [%#x,%#x) outside heap [0,0x400)", r[0], r[0]+r[1])
		func() {
			defer func() {
				if got := recover(); got != want {
					t.Errorf("Chunk(%d, %d): panic %v, want %q", r[0], r[1], got, want)
				}
			}()
			tbl.Chunk(r[0], int(r[1]))
		}()
	}
}

// TestZeroAllocChunkWalk: walking a range that spans pages allocates
// nothing.
func TestZeroAllocChunkWalk(t *testing.T) {
	tbl, _ := NewTable(1<<16, 512)
	total := 0
	if n := testing.AllocsPerRun(1000, func() {
		for c := tbl.Chunk(500, 2000); c.Len > 0; c = tbl.Next(c, 2000) {
			total += c.Len
		}
	}); n != 0 {
		t.Fatalf("chunk walk allocates %.1f/op, want 0", n)
	}
	if total != 1001*2000 {
		t.Fatalf("walk covered %d bytes over 1001 runs, want %d", total, 1001*2000)
	}
}

func TestPageDataLazyZero(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	p := tbl.Page(2)
	p.Lock()
	defer p.Unlock()
	buf := make([]byte, 16)
	for i := range buf {
		buf[i] = 0xFF
	}
	p.ReadInto(buf, 100) // untouched page reads as zeros
	if !bytes.Equal(buf, make([]byte, 16)) {
		t.Fatalf("untouched page read %v", buf)
	}
	p.WriteFrom([]byte{1, 2, 3}, 50)
	if !p.Dirty() {
		t.Fatal("write did not set dirty")
	}
	out := make([]byte, 3)
	p.ReadInto(out, 50)
	if !bytes.Equal(out, []byte{1, 2, 3}) {
		t.Fatalf("read back %v", out)
	}
}

func TestPageTwinDiffCycle(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	p := tbl.Page(0)
	p.Lock()
	defer p.Unlock()
	p.WriteFrom([]byte{9, 9}, 0)
	if !p.MakeTwin() {
		t.Fatal("MakeTwin returned false on first call")
	}
	if p.MakeTwin() {
		t.Fatal("second MakeTwin created a new twin")
	}
	p.WriteFrom([]byte{7}, 1)
	diff := p.DiffAgainstTwin()
	runs, err := DiffRanges(diff)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0] != [2]int{1, 1} {
		t.Fatalf("runs = %v", runs)
	}
	p.RefreshTwin()
	if p.Dirty() {
		t.Fatal("RefreshTwin left dirty set")
	}
	if d := p.DiffAgainstTwin(); len(d) != 0 {
		t.Fatalf("diff after refresh = %v", d)
	}
	p.DropTwin()
	if p.HasTwin() {
		t.Fatal("DropTwin kept twin")
	}
}

func TestPageInstall(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	p := tbl.Page(1)
	p.Lock()
	defer p.Unlock()
	data := make([]byte, 256)
	data[0] = 42
	p.Install(data, ReadOnly)
	if p.Prot() != ReadOnly {
		t.Fatalf("prot = %v", p.Prot())
	}
	out := make([]byte, 1)
	p.ReadInto(out, 0)
	if out[0] != 42 {
		t.Fatalf("installed data lost: %v", out)
	}
	// nil data keeps contents, updates protection.
	p.Install(nil, ReadWrite)
	if p.Prot() != ReadWrite {
		t.Fatal("Install(nil) did not update prot")
	}
	p.ReadInto(out, 0)
	if out[0] != 42 {
		t.Fatal("Install(nil) clobbered data")
	}
}

func TestPageInstallWrongSizePanics(t *testing.T) {
	tbl, _ := NewTable(1024, 256)
	p := tbl.Page(0)
	p.Lock()
	defer p.Unlock()
	defer func() {
		if recover() == nil {
			t.Fatal("short Install did not panic")
		}
	}()
	p.Install(make([]byte, 10), ReadOnly)
}

func TestProtString(t *testing.T) {
	if Invalid.String() != "invalid" || ReadOnly.String() != "read-only" || ReadWrite.String() != "read-write" {
		t.Fatal("Prot names wrong")
	}
}

func TestApplyDiffLocked(t *testing.T) {
	tbl, _ := NewTable(512, 256)
	p := tbl.Page(0)
	p.Lock()
	defer p.Unlock()
	p.MakeTwin()
	// Remote diff: write bytes 10..12 to 5.
	base := make([]byte, 256)
	cur := append([]byte(nil), base...)
	cur[10], cur[11] = 5, 5
	remote := CreateDiff(base, cur)
	if err := p.ApplyDiffLocked(remote, true); err != nil {
		t.Fatal(err)
	}
	// Local writes elsewhere must produce a diff that excludes the
	// remotely applied runs (twin was patched too).
	p.WriteFrom([]byte{1}, 100)
	d := p.DiffAgainstTwin()
	runs, err := DiffRanges(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0][0] != 100 {
		t.Fatalf("local diff runs = %v, want only offset 100", runs)
	}
}

func TestLatchSemantics(t *testing.T) {
	tbl, _ := NewTable(512, 256)
	p := tbl.Page(0)
	p.Lock()
	if p.LatchBusy() {
		t.Fatal("fresh page busy")
	}
	p.LatchAcquire()
	if !p.LatchBusy() {
		t.Fatal("latch not held")
	}
	// A waiter must block until release.
	released := make(chan struct{})
	woke := make(chan struct{})
	go func() {
		p.Lock()
		for p.LatchBusy() {
			p.LatchWait()
		}
		select {
		case <-released:
		default:
			t.Error("waiter woke before release")
		}
		p.Unlock()
		close(woke)
	}()
	p.Unlock()
	// Give the waiter time to park.
	for i := 0; i < 100; i++ {
		runtime.Gosched()
	}
	p.Lock()
	close(released)
	p.LatchRelease()
	p.Unlock()
	<-woke
}

func TestLatchMisusePanics(t *testing.T) {
	tbl, _ := NewTable(512, 256)
	p := tbl.Page(0)
	p.Lock()
	defer p.Unlock()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("release without acquire did not panic")
			}
		}()
		p.LatchRelease()
	}()
	p.LatchAcquire()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double acquire did not panic")
			}
		}()
		p.LatchAcquire()
	}()
	p.LatchRelease()
}
