package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// The software-MMU hit — an access to a page this node already holds
// with sufficient protection — is the cost every shared load and
// store pays. These tests gate its allocation contract and pin the
// protocol-visible behaviour of the access path: counters, faults,
// collector observations, direct-engine routing and access events.

// hitRegion returns node 0 of a fresh 2-node cluster under proto and
// a page-aligned two-page region that node 0 has written and read, so
// both pages are resident and writable.
func hitRegion(tb testing.TB, proto core.Protocol) (n *core.Node, addr int64, ps int) {
	tb.Helper()
	c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: proto})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	ps = c.Config().PageSize
	if addr, err = c.AllocPage(int64(2 * ps)); err != nil {
		tb.Fatal(err)
	}
	n = c.Node(0)
	buf := make([]byte, 2*ps)
	if err := n.WriteAt(addr, buf); err != nil {
		tb.Fatal(err)
	}
	if err := n.ReadAt(addr, buf); err != nil {
		tb.Fatal(err)
	}
	return n, addr, ps
}

// TestZeroAllocHit: every typed accessor, and ReadAt/WriteAt with a
// caller-owned buffer inside one page or across a page boundary,
// allocates nothing on a resident page.
func TestZeroAllocHit(t *testing.T) {
	for _, proto := range []core.Protocol{core.SCFixed, core.LRC} {
		t.Run(proto.String(), func(t *testing.T) {
			n, addr, ps := hitRegion(t, proto)
			rt := n.Runtime()
			cross := addr + int64(ps) - 8 // 16 bytes spanning both pages
			buf := make([]byte, 16)
			cases := []struct {
				name string
				fn   func() error
			}{
				{"ReadUint64", func() error { _, err := n.ReadUint64(addr); return err }},
				{"WriteUint64", func() error { return n.WriteUint64(addr, 7) }},
				{"ReadInt64", func() error { _, err := n.ReadInt64(addr + 8); return err }},
				{"WriteInt64", func() error { return n.WriteInt64(addr+8, -7) }},
				{"ReadFloat64", func() error { _, err := n.ReadFloat64(addr + 16); return err }},
				{"WriteFloat64", func() error { return n.WriteFloat64(addr+16, 0.5) }},
				{"ReadUint32", func() error { _, err := rt.ReadUint32(addr + 24); return err }},
				{"WriteUint32", func() error { return rt.WriteUint32(addr+24, 9) }},
				{"ReadAt/one-page", func() error { return n.ReadAt(addr+32, buf) }},
				{"WriteAt/one-page", func() error { return n.WriteAt(addr+32, buf) }},
				{"ReadAt/two-pages", func() error { return n.ReadAt(cross, buf) }},
				{"WriteAt/two-pages", func() error { return n.WriteAt(cross, buf) }},
			}
			for _, tc := range cases {
				if err := tc.fn(); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				allocs := testing.AllocsPerRun(1000, func() {
					if err := tc.fn(); err != nil {
						panic(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s on a resident page allocates %.1f/op, want 0", tc.name, allocs)
				}
			}
		})
	}
}

func BenchmarkHitRead(b *testing.B) {
	n, addr, _ := hitRegion(b, core.SCFixed)
	var sink uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := n.ReadUint64(addr)
		if err != nil {
			b.Fatal(err)
		}
		sink += v
	}
	hitSink = sink
}

func BenchmarkHitWrite(b *testing.B) {
	n, addr, _ := hitRegion(b, core.SCFixed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.WriteUint64(addr, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

var hitSink uint64

// TestUnalignedAccessSpansPages: a uint64 straddling a page boundary
// round-trips through another node, which read-faults exactly the two
// pages it touches.
func TestUnalignedAccessSpansPages(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: core.SCFixed})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ps := c.Config().PageSize
	base, err := c.AllocPage(int64(2 * ps))
	if err != nil {
		t.Fatal(err)
	}
	addr := base + int64(ps) - 4
	const want = 0x0123456789abcdef
	if err := c.Node(0).WriteUint64(addr, want); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()[1].ReadFaults
	got, err := c.Node(1).ReadUint64(addr)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("read %#x, want %#x", got, want)
	}
	if f := c.Stats()[1].ReadFaults - before; f != 2 {
		t.Fatalf("read faults = %d, want 2 (one per page)", f)
	}
	if got, err := c.Node(0).ReadUint64(addr); err != nil || got != want {
		t.Fatalf("writer reads back %#x, %v", got, err)
	}
}

// TestAccessOutsideHeapPanics: an access that leaves the heap panics
// with the page table's range message, on the paged and the direct
// access paths alike.
func TestAccessOutsideHeapPanics(t *testing.T) {
	for _, proto := range []core.Protocol{core.SCFixed, core.CentralServer} {
		c, err := core.NewCluster(core.Config{Nodes: 1, Protocol: proto})
		if err != nil {
			t.Fatal(err)
		}
		n := c.Node(0)
		heap := c.Config().HeapBytes
		cases := []struct {
			name   string
			lo, hi int64
			fn     func()
		}{
			{"ReadUint64(-8)", -8, 0, func() { _, _ = n.ReadUint64(-8) }},
			{"WriteUint64(heap)", heap, heap + 8, func() { _ = n.WriteUint64(heap, 1) }},
			{"ReadAt(heap-4, 8)", heap - 4, heap + 4, func() { _ = n.ReadAt(heap-4, make([]byte, 8)) }},
			{"WriteAt(-1, 1)", -1, 0, func() { _ = n.WriteAt(-1, []byte{1}) }},
		}
		for _, tc := range cases {
			want := fmt.Sprintf("mem: range [%#x,%#x) outside heap [0,%#x)", tc.lo, tc.hi, heap)
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%v %s: panic %v, want %q", proto, tc.name, got, want)
					}
				}()
				tc.fn()
			}()
		}
		c.Close()
	}
}

// TestCollectorObservesEachPage: with the advisor on, every access
// counts once per page it touches, on the accessing node; an empty
// access counts nothing.
func TestCollectorObservesEachPage(t *testing.T) {
	c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: core.SCFixed, PageSize: 256, Advise: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.AllocPage(4 * 256)
	if err != nil {
		t.Fatal(err)
	}
	n0, n1 := c.Node(0), c.Node(1)
	steps := []error{
		n0.ReadAt(base+250, make([]byte, 300)), // reads p0 p1 p2
		n0.WriteUint64(base+256+8, 1),          // writes p1
		n1.WriteAt(base+500, make([]byte, 20)), // writes p1 p2
		n1.ReadAt(base, nil),                   // nothing
		func() error { _, err := n1.Runtime().ReadUint32(base + 3*256 - 2); return err }(), // reads p2 p3
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	p0 := int32(base / 256)
	want := map[[2]int][2]int64{ // {page offset, node} -> {reads, writes}
		{0, 0}: {1, 0}, {1, 0}: {1, 1}, {2, 0}: {1, 0}, {3, 0}: {0, 0},
		{0, 1}: {0, 0}, {1, 1}: {0, 1}, {2, 1}: {1, 1}, {3, 1}: {1, 0},
	}
	adv := c.Advisor()
	for k, w := range want {
		pg := p0 + int32(k[0])
		if r, wr := adv.Reads(pg, k[1]), adv.Writes(pg, k[1]); r != w[0] || wr != w[1] {
			t.Errorf("page +%d node %d: reads %d writes %d, want %d %d", k[0], k[1], r, wr, w[0], w[1])
		}
	}
}

// TestDirectEngineRouting: the classic engines serve every chunk of an
// access themselves, one remote operation per chunk on a page another
// node serves (central server) or per written chunk (full
// replication), and the data round-trips.
func TestDirectEngineRouting(t *testing.T) {
	const ps = 256
	c, err := core.NewCluster(core.Config{Nodes: 2, Protocol: core.CentralServer, PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.AllocPage(4 * ps)
	if err != nil {
		t.Fatal(err)
	}
	// Pages alternate between the two servers, so exactly one of any
	// two consecutive pages is remote to node 0.
	n := c.Node(0)
	remote := base
	if (base/ps)%2 == 0 {
		remote += ps
	}
	local := remote ^ ps
	data := bytes.Repeat([]byte{0xa5}, 4*ps)
	if err := n.WriteAt(base, data); err != nil { // 2 remote chunks
		t.Fatal(err)
	}
	got := make([]byte, 4*ps)
	if err := n.ReadAt(base, got); err != nil { // 2 remote chunks
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("central server: WriteAt/ReadAt round trip differs")
	}
	if err := n.WriteUint64(remote, 11); err != nil { // 1 remote
		t.Fatal(err)
	}
	if err := n.WriteUint64(local, 12); err != nil { // local
		t.Fatal(err)
	}
	if v, err := n.ReadUint64(remote); err != nil || v != 11 { // 1 remote
		t.Fatalf("remote ReadUint64 = %d, %v", v, err)
	}
	if v, err := n.ReadUint64(local); err != nil || v != 12 { // local
		t.Fatalf("local ReadUint64 = %d, %v", v, err)
	}
	if _, err := n.Runtime().ReadUint32(base + ps - 2); err != nil { // 1 remote, 1 local
		t.Fatal(err)
	}
	st := c.Stats()[0]
	if st.DirectReads != 4 || st.DirectWrites != 3 {
		t.Fatalf("central server: direct reads %d writes %d, want 4 3", st.DirectReads, st.DirectWrites)
	}
	if st.Reads != 4 || st.Writes != 3 {
		t.Fatalf("central server: reads %d writes %d, want 4 3 (one per call)", st.Reads, st.Writes)
	}

	fr, err := core.NewCluster(core.Config{Nodes: 2, Protocol: core.FullReplication, PageSize: ps})
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	if base, err = fr.AllocPage(4 * ps); err != nil {
		t.Fatal(err)
	}
	if err := fr.Node(0).WriteAt(base+ps-4, make([]byte, ps+8)); err != nil { // 3 chunks
		t.Fatal(err)
	}
	if err := fr.Node(0).WriteFloat64(base, 1.5); err != nil { // 1 chunk
		t.Fatal(err)
	}
	if v, err := fr.Node(1).ReadFloat64(base); err != nil || v != 1.5 {
		t.Fatalf("full replication: replica reads %v, %v", v, err)
	}
	if w := fr.Stats()[0].DirectWrites; w != 4 {
		t.Fatalf("full replication: direct writes %d, want 4 (one per chunk)", w)
	}
}

// TestAccessTraceOneEventPerChunk: with access tracing on, every chunk
// of an access emits one EvRead/EvWrite carrying its page, offset,
// length and value hash.
func TestAccessTraceOneEventPerChunk(t *testing.T) {
	const ps = 256
	c, err := core.NewCluster(core.Config{Nodes: 1, Protocol: core.SCFixed, PageSize: ps, AccessTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base, err := c.AllocPage(4 * ps)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node(0)
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	if err := n.WriteAt(base+250, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 300)
	if err := n.ReadAt(base+250, got); err != nil {
		t.Fatal(err)
	}
	if _, err := n.ReadUint64(base + 8); err != nil {
		t.Fatal(err)
	}
	p0 := int32(base / ps)
	type access struct {
		typ      trace.Type
		page     int32
		off, len int
		hash     uint64
	}
	want := []access{
		{trace.EvWrite, p0, 250, 6, trace.HashBytes(data[:6])},
		{trace.EvWrite, p0 + 1, 0, 256, trace.HashBytes(data[6:262])},
		{trace.EvWrite, p0 + 2, 0, 38, trace.HashBytes(data[262:])},
		{trace.EvRead, p0, 250, 6, trace.HashBytes(data[:6])},
		{trace.EvRead, p0 + 1, 0, 256, trace.HashBytes(data[6:262])},
		{trace.EvRead, p0 + 2, 0, 38, trace.HashBytes(data[262:])},
		{trace.EvRead, p0, 8, 8, trace.HashZero(8)},
	}
	var seen []access
	for _, e := range c.Tracer(0).Events() {
		if e.Type == trace.EvRead || e.Type == trace.EvWrite {
			seen = append(seen, access{e.Type, e.Page, e.AccessOff(), e.AccessLen(), e.Req})
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("access events = %+v, want %+v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, seen[i], want[i])
		}
	}
}
