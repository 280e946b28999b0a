package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"ipregel/internal/graph"
)

// CombineFunc merges a newly received message into the single message a
// mailbox holds (paper Fig. 4, IP_combine). It must be commutative and
// associative for the result to be independent of delivery order.
type CombineFunc[M any] func(old *M, new M)

// mailbox is the combination module (paper §6). Each implementation owns
// the per-slot state whose size the paper's memory analysis compares: the
// lock-based push versions keep one cell per vertex whose lock is a mutex
// (8 B in Go) or a spinlock (4 B); the pull version's cells carry no lock
// but it needs per-vertex outboxes; the atomic version packs each buffer
// into a machine word (mailbox_atomic.go).
//
// All mailboxes are double-buffered: compute at superstep s reads the
// "now" buffer (messages sent during s-1) while new messages land in the
// "next" buffer, swapped at the barrier.
type mailbox[M any] interface {
	// deliver pushes msg into slot dst's next-superstep inbox, combining
	// if a message is already present. Safe for concurrent senders on the
	// push implementations; panics on the pull implementation (Send is
	// not part of the broadcast-only contract, §6.2).
	deliver(dst int, msg M)
	// setOutbox buffers the broadcast payload of slot src (pull only).
	setOutbox(src int, msg M)
	// collectInto fetches and combines the outboxes of slot's
	// in-neighbours into slot's next inbox (pull only). Only the owner of
	// slot may call it, which is what makes the pull design race-free.
	// nb is the calling worker's decode buffer for the compressed graph
	// backend (unused on flat graphs).
	collectInto(slot int, nb *graph.NeighborBuf)
	// take pops the current message for slot, reporting whether one
	// existed. A second call in the same superstep returns false,
	// matching IP_get_next_message's drain loop over the single-message
	// mailbox (§6.3). Returning the message by value keeps the caller's
	// variable off the heap.
	take(slot int) (M, bool)
	// consume drops slot's current message, drained or not. The engine
	// calls it when the slot's compute returns (consume-on-return), which
	// is what lets swap skip clearing unread flags.
	consume(slot int)
	// hasCurrent reports whether slot has an unread current message.
	hasCurrent(slot int) bool
	// peek reads slot's current message without consuming it (used by
	// checkpointing at barriers).
	peek(slot int) (M, bool)
	// restoreCurrent reinstates a current message (checkpoint restore).
	restoreCurrent(slot int, m M)
	// swap publishes the next buffer as current in O(1). It relies on
	// consume-on-return: every current message was consumed during the
	// compute phase, so the old current buffer is empty and becomes the
	// next one as is.
	swap()
	// clearOutboxes resets all broadcast flags (pull only; called after
	// the collect phase).
	clearOutboxes()
	// usesPull distinguishes the collect-phase implementations.
	usesPull() bool
	// footprintBytes reports the heap bytes of the mailbox arrays, for
	// the §7.4 accounting.
	footprintBytes() uint64
	// deliveryCounts returns how many deliveries combined into an occupied
	// mailbox and how many filled an empty one since the last reset. The
	// counters are maintained only under Config.CheckInvariants (both are
	// 0 otherwise) and feed the engine's message-conservation audit.
	deliveryCounts() (combines, fills uint64)
	// resetDeliveryCounts zeroes the counters at the superstep barrier.
	resetDeliveryCounts()
	// contentionRetries returns the cumulative count of failed
	// compare-and-swap attempts in delivery (the atomic combiner's
	// value-word combine retries and lost empty-slot claims) — the live
	// contention signal StepStats.CASRetries exposes per superstep.
	// Always 0 for the lock-based and pull combiners, whose waiting
	// happens inside locks rather than CAS retry loops.
	contentionRetries() uint64
	// auditBarrier verifies implementation-specific barrier invariants
	// (no current mail survived the compute phase; the atomic mailbox's
	// state machine holds no slot mid-publication once all workers have
	// joined). Called single-threaded between the compute phase and the
	// buffer swap, only under Config.CheckInvariants.
	auditBarrier() error
}

// cell is one vertex slot's inbox in the paper's plain-struct layout
// (§3.2): the lock guarding the slot sits beside both buffers' messages
// and occupancy flags, so a delivery touches one cache line. Index
// cells.cur of has/msg is the current buffer (read by compute), the other
// index the next one (written by deliveries); swapping buffers flips
// cells.cur. L is the version's lock: spinLock (4 B), sync.Mutex (8 B),
// or noLock for the pull combiner, whose inbox only its owner writes.
type cell[L, M any] struct {
	lock L
	has  [2]uint8
	msg  [2]M
}

// noLock is the pull combiner's zero-byte lock: its inbox deposits are
// owner-only (§6.2).
type noLock struct{}

// cells is the double-buffered inbox array of the lock-based and pull
// combiners, one cell per slot.
//
// Consume-on-return: a slot's current message is dropped when its
// vertex's compute returns (Engine.runVertex / runVertexAt, via consume),
// whether or not the program drained it. Every slot holding current mail
// runs that superstep — the scan runs it via hasCurrent, and under
// selection bypass it was enrolled (auditBypass checks exactly that) —
// so after the compute phase every current flag is clear, and swap is
// an O(1) parity flip: the drained buffer becomes the next one with no
// barrier-time clear.
type cells[L, M any] struct {
	combine CombineFunc[M]
	c       []cell[L, M]
	cur     uint8 // index of the current buffer in every cell (0 or 1)
	// check enables the delivery counters (Config.CheckInvariants).
	// Increments use sync/atomic: deposit holds only the target slot's
	// lock, so deposits to different slots race on the counters.
	check             bool
	nCombines, nFills uint64
}

func newCells[L, M any](slots int, combine CombineFunc[M], check bool) cells[L, M] {
	return cells[L, M]{combine: combine, c: make([]cell[L, M], slots), check: check}
}

// deposit combines msg into c's next buffer; the caller holds c's lock
// (or, for the pull combiner, owns the slot).
func (b *cells[L, M]) deposit(c *cell[L, M], msg M) {
	n := (b.cur ^ 1) & 1
	if c.has[n] != 0 {
		b.combine(&c.msg[n], msg)
		if b.check {
			atomic.AddUint64(&b.nCombines, 1)
		}
		return
	}
	c.msg[n] = msg
	c.has[n] = 1
	if b.check {
		atomic.AddUint64(&b.nFills, 1)
	}
}

func (b *cells[L, M]) take(slot int) (M, bool) {
	m, ok := b.peek(slot)
	b.consume(slot)
	return m, ok
}

// consume drops slot's current message. The store is skipped when the
// flag is already clear, so vertices without mail leave their cell's
// cache line unwritten.
func (b *cells[L, M]) consume(slot int) {
	if p := &b.c[slot].has[b.cur&1]; *p != 0 {
		*p = 0
	}
}

func (b *cells[L, M]) hasCurrent(slot int) bool { return b.c[slot].has[b.cur&1] != 0 }

func (b *cells[L, M]) peek(slot int) (M, bool) {
	c := &b.c[slot]
	p := b.cur & 1
	if c.has[p] == 0 {
		var zero M
		return zero, false
	}
	return c.msg[p], true
}

func (b *cells[L, M]) restoreCurrent(slot int, m M) {
	c := &b.c[slot]
	p := b.cur & 1
	c.msg[p] = m
	c.has[p] = 1
}

func (b *cells[L, M]) swap() { b.cur ^= 1 }

// auditBarrier checks the consume-on-return invariant swap relies on:
// once every worker has joined, no slot still holds current mail.
func (b *cells[L, M]) auditBarrier() error {
	p := b.cur & 1
	for i := range b.c {
		if b.c[i].has[p] != 0 {
			return fmt.Errorf("slot %d still holds current mail at the barrier: its vertex never ran, so the buffer swap would leak the message into the next superstep", i)
		}
	}
	return nil
}

func (b *cells[L, M]) deliveryCounts() (combines, fills uint64) {
	return atomic.LoadUint64(&b.nCombines), atomic.LoadUint64(&b.nFills)
}

func (b *cells[L, M]) resetDeliveryCounts() {
	atomic.StoreUint64(&b.nCombines, 0)
	atomic.StoreUint64(&b.nFills, 0)
}

// contentionRetries: the lock-based and pull combiners have no CAS retry
// loops; their contention shows up as lock wait time instead.
func (b *cells[L, M]) contentionRetries() uint64 { return 0 }

func (b *cells[L, M]) footprintBytes() uint64 {
	return uint64(len(b.c)) * uint64(unsafe.Sizeof(cell[L, M]{}))
}

// mutexMailbox is the block-waiting push combiner (§6.1): one sync.Mutex
// per vertex mailbox, inside the slot's cell.
type mutexMailbox[M any] struct{ cells[sync.Mutex, M] }

func newMutexMailbox[M any](slots int, combine CombineFunc[M], check bool) *mutexMailbox[M] {
	return &mutexMailbox[M]{newCells[sync.Mutex, M](slots, combine, check)}
}

func (mb *mutexMailbox[M]) deliver(dst int, msg M) {
	c := &mb.c[dst]
	c.lock.Lock()
	mb.deposit(c, msg)
	c.lock.Unlock()
}

func (mb *mutexMailbox[M]) setOutbox(int, M) {
	panic("core: broadcast outbox used with a push combiner")
}
func (mb *mutexMailbox[M]) collectInto(int, *graph.NeighborBuf) {
	panic("core: collect phase used with a push combiner")
}
func (mb *mutexMailbox[M]) clearOutboxes() {}
func (mb *mutexMailbox[M]) usesPull() bool { return false }

// spinMailbox is the busy-waiting push combiner (§6.1): one 4-byte
// spinlock per vertex mailbox, inside the slot's cell — lighter than the
// mutex cell (90% lighter locks in the paper's C, where a pthread mutex
// is 40 bytes).
type spinMailbox[M any] struct{ cells[spinLock, M] }

func newSpinMailbox[M any](slots int, combine CombineFunc[M], check bool) *spinMailbox[M] {
	return &spinMailbox[M]{newCells[spinLock, M](slots, combine, check)}
}

func (mb *spinMailbox[M]) deliver(dst int, msg M) {
	c := &mb.c[dst]
	c.lock.lock()
	mb.deposit(c, msg)
	c.lock.unlock()
}

func (mb *spinMailbox[M]) setOutbox(int, M) {
	panic("core: broadcast outbox used with a push combiner")
}
func (mb *spinMailbox[M]) collectInto(int, *graph.NeighborBuf) {
	panic("core: collect phase used with a push combiner")
}
func (mb *spinMailbox[M]) clearOutboxes() {}
func (mb *spinMailbox[M]) usesPull() bool { return false }

// pullMailbox is the pull-based combiner (§6.2). Senders buffer one
// message in their own outbox; at the end of the superstep each vertex
// fetches its in-neighbours' outboxes and combines into its own inbox.
// All inter-vertex interaction is read-only, so no locks exist at all —
// the paper's race-free design with zero data-race-protection memory.
type pullMailbox[M any] struct {
	cells[noLock, M] // the double-buffered inbox (no locks taken)
	outbox           []M
	outFlag          []uint8
	g                *graph.Graph
	shift            int
}

func newPullMailbox[M any](slots int, combine CombineFunc[M], g *graph.Graph, shift int, check bool) *pullMailbox[M] {
	return &pullMailbox[M]{
		cells:   newCells[noLock, M](slots, combine, check),
		outbox:  make([]M, slots),
		outFlag: make([]uint8, slots),
		g:       g,
		shift:   shift,
	}
}

func (mb *pullMailbox[M]) deliver(int, M) {
	panic("core: IP_send_message is not available with the pull combiner; the broadcast version requires broadcast-only applications (paper §6.2)")
}

func (mb *pullMailbox[M]) setOutbox(src int, msg M) {
	mb.outbox[src] = msg
	mb.outFlag[src] = 1
}

func (mb *pullMailbox[M]) collectInto(slot int, buf *graph.NeighborBuf) {
	idx := slot - mb.shift
	c := &mb.c[slot]
	for _, nb := range mb.g.InNeighborsWith(buf, idx) {
		nbSlot := int(nb) + mb.shift
		if mb.outFlag[nbSlot] != 0 {
			mb.deposit(c, mb.outbox[nbSlot]) // owner-only write: no lock needed
		}
	}
}

func (mb *pullMailbox[M]) clearOutboxes() { clear(mb.outFlag) }
func (mb *pullMailbox[M]) usesPull() bool { return true }

func (mb *pullMailbox[M]) footprintBytes() uint64 {
	var m M
	msg := uint64(unsafe.Sizeof(m))
	return mb.cells.footprintBytes() + uint64(len(mb.outbox))*msg + uint64(len(mb.outFlag))
}

// MailboxBytesPerSlot reports the bytes one vertex slot's mailbox costs
// under combiner c for a message of msgBytes bytes (1, 2, 4 or 8): the
// unsafe.Sizeof of the version's cell — plus the outbox and its flag for
// the pull combiner — or the atomic combiner's value words and states.
// It is the per-slot term of Engine.FootprintBytes, exported for the
// analytic models of internal/memmodel.
func MailboxBytesPerSlot(c Combiner, msgBytes uint64) uint64 {
	switch msgBytes {
	case 1:
		return mailboxBytesPerSlot[uint8](c)
	case 2:
		return mailboxBytesPerSlot[uint16](c)
	case 4:
		return mailboxBytesPerSlot[uint32](c)
	case 8:
		return mailboxBytesPerSlot[uint64](c)
	}
	panic(fmt.Sprintf("core: MailboxBytesPerSlot models 1-, 2-, 4- and 8-byte messages, got %d", msgBytes))
}

func mailboxBytesPerSlot[M any](c Combiner) uint64 {
	mb, err := newMailbox[M](Config{Combiner: c}, 1, func(*M, M) {}, nil, 0)
	if err != nil {
		panic(err)
	}
	return mb.footprintBytes()
}

// newMailbox builds the combination module version chosen by cfg. It
// fails when the version's assumptions do not hold for M (the atomic
// combiner requires word-sized messages).
func newMailbox[M any](cfg Config, slots int, combine CombineFunc[M], g *graph.Graph, shift int) (mailbox[M], error) {
	check := cfg.CheckInvariants
	switch cfg.Combiner {
	case CombinerMutex:
		return newMutexMailbox[M](slots, combine, check), nil
	case CombinerSpin:
		return newSpinMailbox[M](slots, combine, check), nil
	case CombinerPull:
		return newPullMailbox[M](slots, combine, g, shift, check), nil
	case CombinerAtomic:
		return newAtomicMailbox[M](slots, combine, check)
	}
	return nil, fmt.Errorf("core: unknown combiner %v", cfg.Combiner)
}
