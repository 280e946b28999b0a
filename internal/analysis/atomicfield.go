package analysis

import (
	"go/token"
	"strings"
)

// AtomicField is the interprocedural generalization of nakedatomic: a
// struct field that is accessed through sync/atomic anywhere in the
// module has, by that fact, declared itself shared mutable state — every
// other access of it must be atomic too, or the module's happens-before
// story has a hole the race detector may never schedule onto. nakedatomic
// needs the author to mark the field; atomicfield infers the set from the
// code itself, so a new plain read added three packages away from the CAS
// loop is caught without any annotation.
//
// The one legitimate exception is the superstep barrier: between the
// worker join and the next dispatch exactly one goroutine runs, and plain
// reads of CASed state are defined behavior (the sync.WaitGroup edge
// orders them). Functions that run only there carry //ipregel:phase
// <reason>, which exempts their plain accesses here and is verified by
// phasesafe (a phase-marked function reachable from a goroutine spawn is
// reported).
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: `flag plain access of fields accessed atomically elsewhere in the module

A field with at least one sync/atomic access anywhere in the module
(&f or &f[i] passed directly to atomic.Load/Store/Add/CompareAndSwap)
is shared mutable state; a plain read or write of it anywhere else is a
data race candidate and is reported. Scalar fields are checked on every
value access, slice/array fields on element accesses (whole-field
operations — swap, len, make, clear — stay free, as in nakedatomic).
Plain access inside a function marked //ipregel:phase <reason> is
exempt: the function asserts it runs only in a single-threaded barrier
section, an assertion phasesafe verifies. Fields already carrying
//ipregel:atomic stay under nakedatomic's per-package regime.`,
	Run: runAtomicField,
}

func runAtomicField(pass *Pass) error {
	sub, err := pass.Substrate()
	if err != nil {
		return err
	}
	atomicSet := sub.AtomicFields()

	// Report plain accesses in this target's own functions only; other
	// packages are reported when they are the target.
	pkgPath := strings.TrimSuffix(pass.Pkg.Path(), "_test")
	sub.Funcs(func(sum *FuncSummary) {
		if !strings.HasPrefix(sum.Ref, pkgPath+".") {
			return
		}
		if !pass.ownsPos(sum.Pos) {
			return // module-view summary of a package that is not this target
		}
		if sum.Phase {
			if sum.PhaseReason == "" {
				pass.Reportf(sum.Pos, "%s: malformed phase directive: want //ipregel:phase <reason>", sum.Name)
			}
			return // barrier-section function: plain reads are ordered by the join edge
		}
		for _, use := range sum.Plain {
			if !atomicSet[use.Field] || sub.MarkedAtomic(use.Field) {
				continue
			}
			verb := "read"
			if use.Write {
				verb = "write"
			}
			what := "field"
			if use.Element {
				what = "element of field"
			}
			pass.Reportf(use.Pos, "plain %s of %s %s, which is accessed via sync/atomic elsewhere in the module: use atomic operations, or mark the enclosing function //ipregel:phase <reason> if it runs only in a barrier section", verb, what, fieldDisplay(use.Field))
		}
	})
	return nil
}

// fieldDisplay shortens a FieldRef for diagnostics:
// "ipregel/internal/core.atomicMailbox.stateNext" ->
// "core.atomicMailbox.stateNext".
func fieldDisplay(ref string) string {
	return ref[strings.LastIndex(ref, "/")+1:]
}

// ownsPos reports whether pos lies in one of the pass's own files —
// distinguishing the target's re-checked summaries from module-view
// summaries of the same package (both share symbolic refs; the target
// extension overwrites the module entries, so this is a belt-and-braces
// position check).
func (p *Pass) ownsPos(pos token.Pos) bool {
	for _, f := range p.Files {
		if f.Pos() <= pos && pos <= f.End() {
			return true
		}
	}
	return false
}
