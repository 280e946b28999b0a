package core

// Test hooks for the package core_test files (msgpath_test.go), which
// drive the engine with the real programs of internal/algorithms — an
// import an in-package test cannot make without a cycle.

// RaceEnabled reports a -race build, under which allocation gates skip.
const RaceEnabled = raceEnabled

// SerialSuperstep runs one superstep of a flat, non-bypass engine on
// worker 0 without the fork-join scaffolding: the selection scan, the
// compute of every selected vertex through runVertex (consume-on-return
// included) and the buffer swap. The allocation gates time exactly the
// per-vertex and per-message work this leaves.
func SerialSuperstep[V, M any](e *Engine[V, M]) {
	e.workers[0].resetSuperstep()
	first := e.superstep == 0
	for i := 0; i < e.g.N(); i++ {
		slot := i + e.shift
		if first || e.active[slot] != 0 || e.mb.hasCurrent(slot) {
			e.runVertex(0, slot)
		}
	}
	if c := e.workers[0].cache; c != nil {
		c.drain(e.mb)
	}
	e.mb.swap()
	e.superstep++
}
