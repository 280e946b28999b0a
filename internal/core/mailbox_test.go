package core

import (
	"sync"
	"testing"
	"unsafe"
)

// TestDeliverAllocs is the allocation gate on the push combiners'
// delivery path: filling an empty slot and combining into an occupied
// one allocate nothing, for 4- and 8-byte messages. (The atomic
// combiner's combine target once escaped to the heap on every combine.)
func TestDeliverAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates do not hold under -race instrumentation")
	}
	t.Run("uint32", func(t *testing.T) { deliverAllocs[uint32](t, 7) })
	t.Run("float64", func(t *testing.T) { deliverAllocs[float64](t, 0.5) })
}

func deliverAllocs[M uint32 | float64](t *testing.T, msg M) {
	sum := func(old *M, new M) { *old += new }
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin, CombinerAtomic} {
		mb, err := newMailbox[M](Config{Combiner: comb}, 8, sum, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			for i := 0; i < 64; i++ {
				mb.deliver(i%8, msg)
			}
			mb.swap()
			for s := 0; s < 8; s++ {
				mb.take(s)
				mb.consume(s)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per 64 deliveries, want 0", comb, allocs)
		}
	}
}

// TestCellLayout pins the per-slot cell sizes the footprint accounting
// and DESIGN.md quote: the lock, two flags and two messages in one
// struct, the spinlock cell lighter than the mutex cell.
func TestCellLayout(t *testing.T) {
	for _, tc := range []struct {
		name string
		got  uintptr
		want uintptr
	}{
		{"spinlock/uint32", unsafe.Sizeof(cell[spinLock, uint32]{}), 16},
		{"spinlock/float64", unsafe.Sizeof(cell[spinLock, float64]{}), 24},
		{"mutex/uint32", unsafe.Sizeof(cell[sync.Mutex, uint32]{}), 20},
		{"mutex/float64", unsafe.Sizeof(cell[sync.Mutex, float64]{}), 32},
		{"pull/uint32", unsafe.Sizeof(cell[noLock, uint32]{}), 12},
		{"pull/float64", unsafe.Sizeof(cell[noLock, float64]{}), 24},
	} {
		if tc.got != tc.want {
			t.Errorf("%s cell = %d B, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestSwapIsParityFlip checks the consume-on-return contract at the
// mailbox level: a consumed-but-undrained message does not resurface
// after two swaps, and mail delivered in between is seen alone.
func TestSwapIsParityFlip(t *testing.T) {
	sum := func(old *uint32, new uint32) { *old += new }
	for _, comb := range []Combiner{CombinerMutex, CombinerSpin, CombinerAtomic} {
		mb, err := newMailbox[uint32](Config{Combiner: comb}, 2, sum, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		mb.deliver(0, 1)
		mb.swap()
		if !mb.hasCurrent(0) || mb.hasCurrent(1) {
			t.Fatalf("%s: current flags after first swap wrong", comb)
		}
		mb.consume(0) // compute returned without draining
		mb.consume(1)
		if err := mb.auditBarrier(); err != nil {
			t.Fatalf("%s: audit after consume: %v", comb, err)
		}
		mb.deliver(0, 100)
		mb.swap()
		if m, ok := mb.take(0); !ok || m != 100 {
			t.Fatalf("%s: take = (%d, %v), want (100, true): undrained mail leaked", comb, m, ok)
		}
		if _, ok := mb.take(0); ok {
			t.Fatalf("%s: second take in one superstep returned a message", comb)
		}
		mb.deliver(1, 5)
		mb.swap()
		if err := mb.auditBarrier(); err == nil {
			t.Fatalf("%s: audit accepted current mail no vertex consumed", comb)
		}
	}
}
