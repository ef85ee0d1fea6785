package nodecore

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/trace"
)

// ReadAt copies len(buf) bytes of shared memory starting at addr into
// buf, faulting pages in as needed. It is the software equivalent of
// a load instruction sequence on hardware DSM.
func (r *Runtime) ReadAt(addr int64, buf []byte) error {
	if r.direct != nil {
		return r.directAccess(addr, buf, false)
	}
	return r.access(addr, buf, false)
}

// WriteAt copies buf into shared memory starting at addr, faulting
// pages to writable state as needed.
func (r *Runtime) WriteAt(addr int64, buf []byte) error {
	if r.direct != nil {
		return r.directAccess(addr, buf, true)
	}
	return r.access(addr, buf, true)
}

// access is ReadAt/WriteAt for an engine without DirectEngine. buf
// reaches no interface call, so a caller's stack buffer stays on the
// stack, and a hit on a resident page allocates nothing.
func (r *Runtime) access(addr int64, buf []byte, write bool) error {
	c := r.begin(addr, len(buf), write)
	if c.Len > 0 && c.Len == len(buf) {
		// The whole range lies in one page: the common hit.
		return r.chunk(c, buf, write)
	}
	return r.walk(c, buf, write)
}

// directAccess is ReadAt/WriteAt for a DirectEngine, which may serve
// the access itself before the paged path is tried.
func (r *Runtime) directAccess(addr int64, buf []byte, write bool) error {
	c := r.begin(addr, len(buf), write)
	if c.Len == 0 {
		return nil
	}
	var handled bool
	var err error
	if write {
		handled, err = r.direct.DirectWrite(addr, buf)
	} else {
		handled, err = r.direct.DirectRead(addr, buf)
	}
	if handled {
		return err
	}
	return r.walk(c, buf, write)
}

// begin counts one access of n bytes at addr, checks its range, and
// reports each page it touches to the collector. It returns the
// range's first chunk, which is empty when n is 0.
func (r *Runtime) begin(addr int64, n int, write bool) mem.Chunk {
	if write {
		r.st.Writes.Add(1)
	} else {
		r.st.Reads.Add(1)
	}
	if n == 0 {
		return mem.Chunk{}
	}
	c := r.tbl.Chunk(addr, n)
	if r.collector != nil {
		for o := c; o.Len > 0; o = r.tbl.Next(o, n) {
			r.collector.Observe(int(r.id), o.Page, write)
		}
	}
	return c
}

// walk performs the access chunk by chunk, from first to the end of
// buf.
func (r *Runtime) walk(first mem.Chunk, buf []byte, write bool) error {
	for c := first; c.Len > 0; c = r.tbl.Next(c, len(buf)) {
		if err := r.chunk(c, buf, write); err != nil {
			return err
		}
	}
	return nil
}

// chunk performs one chunk of an access under its page's lock, first
// faulting until the page's protection allows the access.
func (r *Runtime) chunk(c mem.Chunk, buf []byte, write bool) error {
	need, faults, ev := mem.ReadOnly, &r.st.ReadFaults, trace.EvRead
	if write {
		need, faults, ev = mem.ReadWrite, &r.st.WriteFaults, trace.EvWrite
	}
	p := r.tbl.Page(c.Page)
	p.Lock()
	defer p.Unlock()
	for p.Prot() < need {
		if p.LatchBusy() {
			p.LatchWait()
			continue
		}
		p.LatchAcquire()
		p.Unlock()
		faults.Add(1)
		err := r.servedFault(c.Page, write)
		p.Lock()
		p.LatchRelease()
		if err != nil {
			if write {
				return fmt.Errorf("node %d: write fault page %d: %w", r.id, c.Page, err)
			}
			return fmt.Errorf("node %d: read fault page %d: %w", r.id, c.Page, err)
		}
	}
	b := buf[c.Pos : c.Pos+c.Len]
	if write {
		p.WriteFrom(b, c.Off)
	} else {
		p.ReadInto(b, c.Off)
	}
	if r.atrace != nil {
		// Still under the page lock, so a read's hash is of the bytes
		// it actually returned and the emission is ordered with any
		// concurrent local access to the same page.
		r.atrace.Emit(ev, -1, trace.HashBytes(b), c.Page, -1, trace.AccessArg(c.Off, c.Len), 0)
	}
	return nil
}

// servedFault runs the engine's fault handler for page, timing it into
// the fault-service histogram and, when tracing is on, the trace ring.
func (r *Runtime) servedFault(page mem.PageID, write bool) error {
	var rw uint64
	if write {
		rw = 1
	}
	r.tracer.Emit(trace.EvFaultBegin, -1, 0, page, -1, rw, 0)
	start := time.Now()
	var err error
	if write {
		err = r.engine.WriteFault(page)
	} else {
		err = r.engine.ReadFault(page)
	}
	d := time.Since(start)
	r.st.Lat.Fault.Observe(d.Nanoseconds())
	r.tracer.Emit(trace.EvFaultEnd, -1, 0, page, -1, rw, d)
	return err
}

// Typed accessors. Values are stored little-endian. An aligned value
// never spans pages because page sizes are powers of two >= 8.

// typedAccess performs a typed accessor's access on its stack buffer b.
// Without a DirectEngine that is the plain access path, so b stays on
// the caller's stack; a DirectEngine is handed a heap copy instead.
func (r *Runtime) typedAccess(addr int64, b []byte, write bool) error {
	if r.direct == nil {
		return r.access(addr, b, write)
	}
	h := append([]byte(nil), b...)
	err := r.directAccess(addr, h, write)
	copy(b, h)
	return err
}

// ReadUint64 loads the 8-byte value at addr.
func (r *Runtime) ReadUint64(addr int64) (uint64, error) {
	var b [8]byte
	if err := r.typedAccess(addr, b[:], false); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// WriteUint64 stores an 8-byte value at addr.
func (r *Runtime) WriteUint64(addr int64, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return r.typedAccess(addr, b[:], true)
}

// ReadInt64 loads a signed 8-byte value.
func (r *Runtime) ReadInt64(addr int64) (int64, error) {
	v, err := r.ReadUint64(addr)
	return int64(v), err
}

// WriteInt64 stores a signed 8-byte value.
func (r *Runtime) WriteInt64(addr int64, v int64) error {
	return r.WriteUint64(addr, uint64(v))
}

// ReadFloat64 loads an 8-byte IEEE-754 value.
func (r *Runtime) ReadFloat64(addr int64) (float64, error) {
	v, err := r.ReadUint64(addr)
	return math.Float64frombits(v), err
}

// WriteFloat64 stores an 8-byte IEEE-754 value.
func (r *Runtime) WriteFloat64(addr int64, v float64) error {
	return r.WriteUint64(addr, math.Float64bits(v))
}

// ReadUint32 loads a 4-byte value at addr.
func (r *Runtime) ReadUint32(addr int64) (uint32, error) {
	var b [4]byte
	if err := r.typedAccess(addr, b[:], false); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// WriteUint32 stores a 4-byte value at addr.
func (r *Runtime) WriteUint32(addr int64, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return r.typedAccess(addr, b[:], true)
}

// TxLocks serializes page transactions at the node that manages or
// owns each page. It is distinct from the page mutex (which protects
// contents and is never held across the network) — a transaction
// lock IS held across nested RPCs, which is safe because transaction
// locks are only taken by the single serializer of each page.
type TxLocks struct {
	mu []sync.Mutex
}

// NewTxLocks sizes the lock table for the page count.
func NewTxLocks(pages int) *TxLocks {
	return &TxLocks{mu: make([]sync.Mutex, pages)}
}

// Lock acquires the transaction lock for a page.
func (t *TxLocks) Lock(p mem.PageID) { t.mu[p].Lock() }

// Unlock releases the transaction lock for a page.
func (t *TxLocks) Unlock(p mem.PageID) { t.mu[p].Unlock() }
