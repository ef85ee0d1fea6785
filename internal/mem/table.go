package mem

import "fmt"

// Table is one node's page table for the shared address space:
// HeapBytes of address space split into fixed-size pages.
type Table struct {
	pageSize int
	heap     int64
	pages    []Page
}

// NewTable builds a page table for a heap of heapBytes bytes with the
// given page size (a power of two). heapBytes is rounded up to a
// whole number of pages.
func NewTable(heapBytes int64, pageSize int) (*Table, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("mem: page size %d is not a positive power of two", pageSize)
	}
	if heapBytes <= 0 {
		return nil, fmt.Errorf("mem: heap size %d must be positive", heapBytes)
	}
	n := int((heapBytes + int64(pageSize) - 1) / int64(pageSize))
	t := &Table{
		pageSize: pageSize,
		heap:     int64(n) * int64(pageSize),
		pages:    make([]Page, n),
	}
	for i := range t.pages {
		t.pages[i].init(PageID(i), pageSize)
	}
	return t, nil
}

// PageSize returns the page size in bytes.
func (t *Table) PageSize() int { return t.pageSize }

// HeapBytes returns the total (page-rounded) heap size.
func (t *Table) HeapBytes() int64 { return t.heap }

// NumPages returns the number of pages.
func (t *Table) NumPages() int { return len(t.pages) }

// Page returns the page with the given id.
func (t *Table) Page(id PageID) *Page {
	if id < 0 || int(id) >= len(t.pages) {
		panic(fmt.Sprintf("mem: page %d out of range [0,%d)", id, len(t.pages)))
	}
	return &t.pages[id]
}

// PageOf returns the page id and intra-page offset for an address.
func (t *Table) PageOf(addr int64) (PageID, int) {
	if addr < 0 || addr >= t.heap {
		panic(fmt.Sprintf("mem: address %#x outside heap [0,%#x)", addr, t.heap))
	}
	return PageID(addr / int64(t.pageSize)), int(addr % int64(t.pageSize))
}

// Chunk describes the intersection of an address range with one page.
type Chunk struct {
	Page PageID
	Off  int // offset within the page
	Pos  int // offset within the caller's buffer
	Len  int
}

// Chunk returns the first chunk of the range [addr, addr+n): its
// intersection with addr's page. It panics if the range leaves the
// heap. A chunk whose Len equals n covers the whole range; otherwise
// Next yields the rest. Together they walk a range page by page
// without allocating:
//
//	for c := t.Chunk(addr, n); c.Len > 0; c = t.Next(c, n) { ... }
func (t *Table) Chunk(addr int64, n int) Chunk {
	if n < 0 {
		panic(fmt.Sprintf("mem: Chunk: negative length %d", n))
	}
	if addr < 0 || addr+int64(n) > t.heap {
		panic(fmt.Sprintf("mem: range [%#x,%#x) outside heap [0,%#x)", addr, addr+int64(n), t.heap))
	}
	off := int(addr & int64(t.pageSize-1))
	return Chunk{Page: PageID(addr / int64(t.pageSize)), Off: off, Len: min(t.pageSize-off, n)}
}

// Next returns the chunk after c in the walk of an n-byte range, or a
// zero-length chunk once c ends the range. Every chunk after the
// first starts at offset 0 of the next page.
func (t *Table) Next(c Chunk, n int) Chunk {
	pos := c.Pos + c.Len
	if pos >= n {
		return Chunk{}
	}
	return Chunk{Page: c.Page + 1, Pos: pos, Len: min(t.pageSize, n-pos)}
}
