// Package classic implements the two remaining algorithm classes of
// the Stumm & Zhou DSM taxonomy (IEEE Computer 1990) that the sc
// package does not cover:
//
//   - Central server: shared data is never cached; every read and
//     write is a remote operation on the page's statically assigned
//     server node. Trivially sequentially consistent, maximally
//     communication-bound — the baseline every DSM paper starts from.
//
//   - Full replication with write-update: every node holds a copy of
//     every page; writes are sent to the page's sequencer, which
//     imposes a total order per page and propagates updates to all
//     replicas before acknowledging the writer. Reads are always
//     local.
//
// (Migration, the SRSW class, is sc.Config{Migrate: true}; read
// replication is the sc package itself.)
package classic

import (
	"fmt"
	"sync"

	"repro/internal/dsync"
	"repro/internal/mem"
	"repro/internal/nodecore"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ---------------------------------------------------------------
// Central server
// ---------------------------------------------------------------

// Server is the central-server engine: page p lives on node p mod N
// and is never cached elsewhere.
type Server struct {
	dsync.NopHooks
	rt *nodecore.Runtime
}

// NewServer creates the central-server engine for one node.
func NewServer(rt *nodecore.Runtime) *Server { return &Server{rt: rt} }

// Name implements nodecore.Engine.
func (e *Server) Name() string { return "central-server" }

// Register implements nodecore.Engine.
func (e *Server) Register(rt *nodecore.Runtime) {
	rt.Handle(wire.KDirRead, e.handleRead)
	rt.Handle(wire.KDirWrite, e.handleWrite)
}

// Init implements nodecore.Engine: locally served pages are
// read-write; everything else stays invalid and is only ever touched
// remotely.
func (e *Server) Init() {
	tbl := e.rt.Table()
	for i := 0; i < tbl.NumPages(); i++ {
		if e.serverOf(mem.PageID(i)) == e.rt.ID() {
			p := tbl.Page(mem.PageID(i))
			p.Lock()
			p.SetProt(mem.ReadWrite)
			p.Unlock()
		}
	}
}

func (e *Server) serverOf(pg mem.PageID) transport.NodeID {
	return transport.NodeID(int(pg) % e.rt.N())
}

// ReadFault implements nodecore.Engine; unreachable because
// DirectRead handles every access.
func (e *Server) ReadFault(pg mem.PageID) error {
	panic(fmt.Sprintf("classic: central server: unexpected read fault on page %d", pg))
}

// WriteFault implements nodecore.Engine; unreachable.
func (e *Server) WriteFault(pg mem.PageID) error {
	panic(fmt.Sprintf("classic: central server: unexpected write fault on page %d", pg))
}

// DirectRead implements nodecore.DirectEngine.
func (e *Server) DirectRead(addr int64, buf []byte) (bool, error) {
	tbl := e.rt.Table()
	for c := tbl.Chunk(addr, len(buf)); c.Len > 0; c = tbl.Next(c, len(buf)) {
		dst := buf[c.Pos : c.Pos+c.Len]
		srv := e.serverOf(c.Page)
		if srv == e.rt.ID() {
			p := tbl.Page(c.Page)
			p.Lock()
			p.ReadInto(dst, c.Off)
			p.Unlock()
			continue
		}
		e.rt.Stats().DirectReads.Add(1)
		reply, err := e.rt.Call(&wire.Msg{
			Kind: wire.KDirRead,
			To:   srv,
			Page: c.Page,
			Arg:  uint64(c.Off),
			B:    uint64(c.Len),
		})
		if err != nil {
			return true, err
		}
		copy(dst, reply.Data)
	}
	return true, nil
}

// DirectWrite implements nodecore.DirectEngine.
func (e *Server) DirectWrite(addr int64, buf []byte) (bool, error) {
	tbl := e.rt.Table()
	for c := tbl.Chunk(addr, len(buf)); c.Len > 0; c = tbl.Next(c, len(buf)) {
		src := buf[c.Pos : c.Pos+c.Len]
		srv := e.serverOf(c.Page)
		if srv == e.rt.ID() {
			p := tbl.Page(c.Page)
			p.Lock()
			p.WriteFrom(src, c.Off)
			p.Unlock()
			continue
		}
		e.rt.Stats().DirectWrites.Add(1)
		_, err := e.rt.Call(&wire.Msg{
			Kind: wire.KDirWrite,
			To:   srv,
			Page: c.Page,
			Arg:  uint64(c.Off),
			Data: src,
		})
		if err != nil {
			return true, err
		}
	}
	return true, nil
}

func (e *Server) handleRead(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	out := make([]byte, m.B)
	p.Lock()
	p.ReadInto(out, int(m.Arg))
	p.Unlock()
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KDirReadReply, Page: m.Page, Data: out})
}

func (e *Server) handleWrite(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	p.WriteFrom(m.Data, int(m.Arg))
	p.Unlock()
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KDirWriteAck, Page: m.Page})
}

// ---------------------------------------------------------------
// Full replication with a per-page write sequencer
// ---------------------------------------------------------------

// Replicated is the full-replication engine: every node replicates
// every page; writes funnel through the page's sequencer, which
// updates all replicas before acknowledging.
type Replicated struct {
	dsync.NopHooks
	rt *nodecore.Runtime
	tx *nodecore.TxLocks
}

// NewReplicated creates the full-replication engine for one node.
func NewReplicated(rt *nodecore.Runtime) *Replicated {
	return &Replicated{rt: rt, tx: nodecore.NewTxLocks(rt.Table().NumPages())}
}

// Name implements nodecore.Engine.
func (e *Replicated) Name() string { return "full-replication" }

// Register implements nodecore.Engine.
func (e *Replicated) Register(rt *nodecore.Runtime) {
	rt.Handle(wire.KSeqWrite, e.handleSeqWrite)
	rt.Handle(wire.KUpdate, e.handleUpdate)
}

// Init implements nodecore.Engine: all replicas start valid (zeros)
// and read-only; writes are intercepted by DirectWrite.
func (e *Replicated) Init() {
	tbl := e.rt.Table()
	for i := 0; i < tbl.NumPages(); i++ {
		p := tbl.Page(mem.PageID(i))
		p.Lock()
		p.SetProt(mem.ReadOnly)
		p.Unlock()
	}
}

func (e *Replicated) sequencerOf(pg mem.PageID) transport.NodeID {
	return transport.NodeID(int(pg) % e.rt.N())
}

// ReadFault implements nodecore.Engine; unreachable (replicas are
// always readable).
func (e *Replicated) ReadFault(pg mem.PageID) error {
	panic(fmt.Sprintf("classic: full replication: unexpected read fault on page %d", pg))
}

// WriteFault implements nodecore.Engine; unreachable (DirectWrite
// handles all writes).
func (e *Replicated) WriteFault(pg mem.PageID) error {
	panic(fmt.Sprintf("classic: full replication: unexpected write fault on page %d", pg))
}

// DirectWrite implements nodecore.DirectEngine: route each chunk
// through its sequencer.
func (e *Replicated) DirectWrite(addr int64, buf []byte) (bool, error) {
	tbl := e.rt.Table()
	for c := tbl.Chunk(addr, len(buf)); c.Len > 0; c = tbl.Next(c, len(buf)) {
		src := buf[c.Pos : c.Pos+c.Len]
		e.rt.Stats().DirectWrites.Add(1)
		_, err := e.rt.Call(&wire.Msg{
			Kind: wire.KSeqWrite,
			To:   e.sequencerOf(c.Page),
			Page: c.Page,
			Arg:  uint64(c.Off),
			Data: src,
		})
		if err != nil {
			return true, err
		}
	}
	return true, nil
}

// DirectRead implements nodecore.DirectEngine: reads are local, so
// fall through to the normal (never-faulting) path.
func (e *Replicated) DirectRead(addr int64, buf []byte) (bool, error) {
	return false, nil
}

// handleSeqWrite runs at the sequencer: order the write, update every
// replica (including the writer's and our own), then acknowledge.
func (e *Replicated) handleSeqWrite(m *wire.Msg) {
	e.tx.Lock(m.Page)
	defer e.tx.Unlock(m.Page)

	// Apply locally.
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	p.WriteFrom(m.Data, int(m.Arg))
	p.Seq++
	p.Unlock()

	// Propagate to all other replicas and wait for acknowledgements,
	// so at most one update per page is ever in flight (total order).
	var wg sync.WaitGroup
	for i := 0; i < e.rt.N(); i++ {
		if transport.NodeID(i) == e.rt.ID() {
			continue
		}
		wg.Add(1)
		go func(to transport.NodeID) {
			defer wg.Done()
			_, _ = e.rt.Call(&wire.Msg{
				Kind: wire.KUpdate,
				To:   to,
				Page: m.Page,
				Arg:  m.Arg,
				Data: m.Data,
			})
		}(transport.NodeID(i))
	}
	wg.Wait()
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KSeqWriteAck, Page: m.Page})
}

func (e *Replicated) handleUpdate(m *wire.Msg) {
	p := e.rt.Table().Page(m.Page)
	p.Lock()
	p.WriteFrom(m.Data, int(m.Arg))
	p.Unlock()
	e.rt.Stats().UpdatesApplied.Add(1)
	_ = e.rt.Reply(m, &wire.Msg{Kind: wire.KUpdateAck, Page: m.Page})
}
