// Package ec implements entry consistency (Bershad & Zekauskas,
// Midway, CMU-CS-91-170): shared data is explicitly bound to
// synchronization objects, and consistency is guaranteed only for
// data bound to a lock, only while holding it. The current contents
// of the bound ranges travel with the lock grant itself, so a
// contended lock handoff is one message carrying both permission and
// data — the property experiment E8 measures against LRC and SC.
//
// Versioning: each exclusive release bumps the lock's version; a
// grant ships data only when the acquirer's last-seen version is
// stale, so a node re-acquiring a lock nobody else touched pays no
// data transfer.
//
// Contract (as in Midway): applications access bound data only while
// holding the binding lock, and all shared data used under EC must
// be bound. Barriers are pure rendezvous under this engine — apps
// that need barrier-consistent unbound data should use an RC or SC
// protocol instead.
package ec

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/dsync"
	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/transport"
)

// Range is a byte range of the shared address space bound to a lock.
type Range struct {
	Addr int64
	Len  int
}

// Engine is the per-node EC protocol instance.
type Engine struct {
	dsync.NopHooks
	rt         *nodecore.Runtime
	bindings   func(lock int32) []Range
	diffGrants bool

	mu       sync.Mutex
	ver      map[int32]uint64     // lock -> last version seen/produced locally
	lastMode map[int32]dsync.Mode // lock -> mode of the most recent grant
	logs     map[int32]*lockLog   // diff-grant state (diffGrants mode)
}

// New creates the engine for one node. bindings returns the ranges
// bound to a lock; it is consulted at grant time, so binding must be
// complete before a lock's first use and never change afterwards.
// With diffGrants, grants carry version-tagged diffs of the bound
// ranges instead of full copies (Midway's fine-grained updates);
// see diff.go.
func New(rt *nodecore.Runtime, bindings func(lock int32) []Range, diffGrants bool) *Engine {
	return &Engine{
		rt:         rt,
		bindings:   bindings,
		diffGrants: diffGrants,
		ver:        make(map[int32]uint64),
		lastMode:   make(map[int32]dsync.Mode),
		logs:       make(map[int32]*lockLog),
	}
}

// Name implements nodecore.Engine.
func (e *Engine) Name() string {
	if e.diffGrants {
		return "ec-diff"
	}
	return "ec"
}

// Register implements nodecore.Engine: EC exchanges no page
// messages; everything rides on dsync traffic.
func (e *Engine) Register(rt *nodecore.Runtime) {}

// Init implements nodecore.Engine: every page is locally writable
// from the start; the lock discipline provides all consistency.
func (e *Engine) Init() {
	tbl := e.rt.Table()
	for i := 0; i < tbl.NumPages(); i++ {
		p := tbl.Page(mem.PageID(i))
		p.Lock()
		p.SetProt(mem.ReadWrite)
		p.Unlock()
	}
}

// ReadFault implements nodecore.Engine; unreachable (pages never
// fault under EC).
func (e *Engine) ReadFault(pg mem.PageID) error {
	panic(fmt.Sprintf("ec: unexpected read fault on page %d", pg))
}

// WriteFault implements nodecore.Engine; unreachable.
func (e *Engine) WriteFault(pg mem.PageID) error {
	panic(fmt.Sprintf("ec: unexpected write fault on page %d", pg))
}

func (e *Engine) version(lock int32) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ver[lock]
}

// AcquirePayload implements dsync.Hooks: tell the granter which
// version of the bound data we already hold.
func (e *Engine) AcquirePayload(lock int32) []byte {
	return binary.LittleEndian.AppendUint64(nil, e.version(lock))
}

// GrantPayload implements dsync.Hooks: ship version plus, if the
// acquirer is stale, the current contents of every bound range read
// from our local memory (we are the last releaser, so our copy is
// authoritative).
func (e *Engine) GrantPayload(lock int32, _ transport.NodeID, _ dsync.Mode, reqPayload []byte) []byte {
	var acqVer uint64
	if len(reqPayload) >= 8 {
		acqVer = binary.LittleEndian.Uint64(reqPayload)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := e.ver[lock]
	if acqVer == cur {
		return binary.LittleEndian.AppendUint64(nil, cur) // permission only
	}
	ranges := e.bindings(lock)
	if e.diffGrants {
		return e.buildDiffGrant(lock, acqVer, cur, ranges)
	}
	buf := binary.LittleEndian.AppendUint64(nil, cur)
	buf = binary.AppendUvarint(buf, uint64(len(ranges)))
	for _, r := range ranges {
		buf = binary.AppendUvarint(buf, uint64(r.Addr))
		buf = binary.AppendUvarint(buf, uint64(r.Len))
		data := make([]byte, r.Len)
		e.readLocal(r.Addr, data)
		buf = append(buf, data...)
	}
	return buf
}

// OnGranted implements dsync.Hooks: install the shipped data.
func (e *Engine) OnGranted(lock int32, mode dsync.Mode, payload []byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.lastMode[lock] = mode
	if len(payload) < 8 {
		panic(fmt.Sprintf("ec: node %d: short grant payload (%d bytes)", e.rt.ID(), len(payload)))
	}
	if e.diffGrants {
		ver, err := e.applyDiffGrant(lock, payload, e.bindings(lock))
		if err != nil {
			panic(fmt.Sprintf("ec: node %d: %v", e.rt.ID(), err))
		}
		e.ver[lock] = ver
		return
	}
	ver := binary.LittleEndian.Uint64(payload)
	rest := payload[8:]
	if len(rest) > 0 {
		count, n := binary.Uvarint(rest)
		if n <= 0 {
			panic("ec: bad range count in grant")
		}
		rest = rest[n:]
		for i := uint64(0); i < count; i++ {
			addr, n := binary.Uvarint(rest)
			if n <= 0 {
				panic("ec: bad range addr in grant")
			}
			rest = rest[n:]
			l, n := binary.Uvarint(rest)
			if n <= 0 {
				panic("ec: bad range len in grant")
			}
			rest = rest[n:]
			if uint64(len(rest)) < l {
				panic("ec: truncated range data in grant")
			}
			e.writeLocal(int64(addr), rest[:l])
			e.rt.Stats().UpdatesApplied.Add(1)
			rest = rest[l:]
		}
	}
	e.ver[lock] = ver
}

// OnRelease implements dsync.Hooks: an exclusive holder may have
// written; bump the version so the next acquirer refreshes. (dsync
// does not tell us the mode here; bumping on reader release would
// cause spurious transfers, so we track the granted mode per lock.)
// In diff mode the holder also records its own diff on the lock's
// travelling log.
func (e *Engine) OnRelease(lock int32) {
	e.mu.Lock()
	if e.lastMode[lock] == dsync.Exclusive {
		e.ver[lock]++
		if e.diffGrants {
			e.recordRelease(lock, e.ver[lock], e.bindings(lock))
		}
	}
	e.mu.Unlock()
}

// OnEventSet implements dsync.Hooks: the setter publishes the bound
// ranges — bump the version unconditionally (the setter never
// acquired the event, so lastMode does not apply).
func (e *Engine) OnEventSet(id int32) {
	e.mu.Lock()
	e.ver[id]++
	if e.diffGrants {
		e.recordRelease(id, e.ver[id], e.bindings(id))
	}
	e.mu.Unlock()
}

// readLocal and writeLocal bypass the fault machinery (pages are
// always read-write under EC) but respect page mutexes.
func (e *Engine) readLocal(addr int64, buf []byte) {
	tbl := e.rt.Table()
	for c := tbl.Chunk(addr, len(buf)); c.Len > 0; c = tbl.Next(c, len(buf)) {
		p := tbl.Page(c.Page)
		p.Lock()
		p.ReadInto(buf[c.Pos:c.Pos+c.Len], c.Off)
		p.Unlock()
	}
}

func (e *Engine) writeLocal(addr int64, data []byte) {
	tbl := e.rt.Table()
	for c := tbl.Chunk(addr, len(data)); c.Len > 0; c = tbl.Next(c, len(data)) {
		p := tbl.Page(c.Page)
		p.Lock()
		p.WriteFrom(data[c.Pos:c.Pos+c.Len], c.Off)
		p.Unlock()
	}
}
