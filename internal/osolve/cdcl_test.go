package osolve

// CDCL differential layer: the escalated conflict-driven engine is pitted
// against the brute-force Betweenness oracle on gadget-shaped
// specifications (reductions.CPSFromBetweenness, the Theorem 3.1 hardness
// gadget) — instances whose conflict structure the random tiny specs of
// differential_test.go never produce. Every engine mode must agree with
// the oracle, and the learned-clause lifecycle across ApplyDelta is
// pinned: patches that rebuild a component drop its clause database,
// patches that leave a component aligned carry it, and either way the
// patched verdicts match a fresh grounding of the patched specification.

import (
	"math/rand"
	"testing"

	"currency/internal/reductions"
	"currency/internal/relation"
	"currency/internal/spec"
)

// randomBetweenness draws an n-element instance with tr uniform random
// triples (distinct elements within each triple).
func randomBetweenness(rng *rand.Rand, n, tr int) reductions.BetweennessInstance {
	inst := reductions.BetweennessInstance{N: n}
	for k := 0; k < tr; k++ {
		p := rng.Perm(n)
		inst.Triples = append(inst.Triples, [3]int{p[0], p[1], p[2]})
	}
	return inst
}

// gadgetSolver grounds the hardness gadget for inst.
func gadgetSolver(t testing.TB, inst reductions.BetweennessInstance) *Solver {
	t.Helper()
	s, err := reductions.CPSFromBetweenness(inst)
	if err != nil {
		t.Fatal(err)
	}
	return newOrDie(t, s)
}

// learnedCount sums the published clause databases across components.
func learnedCount(sv *Solver) int {
	n := 0
	for ci := range sv.comps {
		if db := sv.comps[ci].learned.Load(); db != nil {
			n += db.count()
		}
	}
	return n
}

// TestCDCLGadgetDifferential checks every engine mode — chronological
// (SetCDCL(false)), pure CDCL (zero escalation budget), and the default
// two-phase policy — against the permutation oracle on random Betweenness
// instances, including a warm re-query (which replays any persisted
// learned clauses through the clause-watch path) and a SolveWith model
// demand on satisfiable instances.
func TestCDCLGadgetDifferential(t *testing.T) {
	modes := []struct {
		name string
		set  func(sv *Solver)
	}{
		{"chronological", func(sv *Solver) { sv.SetCDCL(false) }},
		{"pure-cdcl", func(sv *Solver) { sv.cdclBudget = 0 }},
		{"two-phase", func(sv *Solver) {}},
	}
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		inst := randomBetweenness(rng, 4+rng.Intn(2), 2+rng.Intn(2))
		want := inst.Solvable()
		for _, mode := range modes {
			sv := gadgetSolver(t, inst)
			mode.set(sv)
			if got := sv.Consistent(); got != want {
				t.Fatalf("iter=%d mode=%s: consistent=%v, oracle=%v (instance %+v)",
					iter, mode.name, got, want, inst)
			}
			if got := sv.Consistent(); got != want {
				t.Fatalf("iter=%d mode=%s: warm re-query flipped to %v", iter, mode.name, got)
			}
			if model, ok := sv.SolveWith(nil); ok != want {
				t.Fatalf("iter=%d mode=%s: SolveWith ok=%v, oracle=%v", iter, mode.name, ok, want)
			} else if ok && model == nil {
				t.Fatalf("iter=%d mode=%s: SolveWith returned a nil model", iter, mode.name)
			}
		}
	}
}

// learnedGadget searches random seeds for a satisfiable instance whose
// cold pure-CDCL solve publishes a non-empty learned-clause database, and
// returns the solver warm.
func learnedGadget(t *testing.T) *Solver {
	t.Helper()
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := randomBetweenness(rng, 5, 3)
		sv := gadgetSolver(t, inst)
		sv.cdclBudget = 0
		if sv.Consistent() && learnedCount(sv) > 0 {
			return sv
		}
	}
	t.Fatal("no satisfiable gadget with published learned clauses in 64 seeds")
	return nil
}

// TestCDCLLearnedClausesDroppedByDelta pins the invalidation side of the
// clause-database lifecycle: a tuple insert touches the gadget's only
// entity, so every component is rebuilt, every learned database must be
// dropped, and the patched solver must agree with a fresh grounding of
// the patched specification.
func TestCDCLLearnedClausesDroppedByDelta(t *testing.T) {
	sv := learnedGadget(t)
	d := &spec.Delta{Inserts: []spec.TupleInsert{{
		Rel: "R",
		Tuple: relation.Tuple{
			relation.S("g"), relation.I(99), relation.S("a0"), relation.I(1), relation.I(1),
		},
	}}}
	patched := applyOrDie(t, sv, d)
	if got := learnedCount(patched); got != 0 {
		t.Fatalf("insert delta carried %d learned clauses into rebuilt components, want 0", got)
	}
	assertGadgetVerdictsFresh(t, patched)
}

// TestCDCLLearnedClausesCarriedByAlignedDelta pins the retention side: a
// base-order reveal on attribute P rebuilds only P's component, the
// constrained A component stays span-aligned and done, and its clause
// database transfers verbatim (span-relative storage makes it
// layout-independent). Verdicts must still match a fresh grounding —
// carried clauses may only prune, never change answers.
func TestCDCLLearnedClausesCarriedByAlignedDelta(t *testing.T) {
	sv := learnedGadget(t)
	before := learnedCount(sv)
	d := &spec.Delta{Orders: []spec.OrderAdd{{Rel: "R", Attr: "P", I: 0, J: 1}}}
	patched := applyOrDie(t, sv, d)
	if got := learnedCount(patched); got != before {
		t.Fatalf("aligned delta kept %d learned clauses, want all %d carried", got, before)
	}
	assertGadgetVerdictsFresh(t, patched)
}

// assertGadgetVerdictsFresh checks a patched gadget solver against a
// fresh grounding of its (already-patched) specification: the consistency
// verdict, a sample of certain pairs in both orientations, and the
// SolveWith satisfiability bit must all agree. The patched solver keeps
// its zero escalation budget, so any carried learned clause is exercised
// by the re-query.
func assertGadgetVerdictsFresh(t *testing.T, patched *Solver) {
	t.Helper()
	fresh := newOrDie(t, patched.Spec)
	if a, b := patched.Consistent(), fresh.Consistent(); a != b {
		t.Fatalf("patched consistent=%v, fresh grounding=%v", a, b)
	}
	for _, p := range [][2]int{{0, 1}, {1, 0}, {0, 2}, {2, 0}, {1, 2}} {
		a, err := patched.CertainPair("R", "A", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.CertainPair("R", "A", p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("certain(R.A %d≺%d): patched=%v, fresh=%v", p[0], p[1], a, b)
		}
	}
	_, aok := patched.SolveWith(nil)
	_, bok := fresh.SolveWith(nil)
	if aok != bok {
		t.Fatalf("SolveWith ok: patched=%v, fresh=%v", aok, bok)
	}
}

// refPickBranch is the linear-scan decision the order heap replaced: the
// first unassigned pair of maximal activity in constrained order,
// oriented by its saved phase.
func refPickBranch(r *cdclRun) int32 {
	best, bestAct := int32(-1), -1.0
	for _, id := range r.c.constrained {
		if r.st.a[id] != unknown {
			continue
		}
		if a := r.act[id-r.lo]; a > bestAct {
			bestAct = a
			best = id
		}
	}
	if best < 0 {
		return -1
	}
	if r.phase[best-r.lo] == greater {
		return r.sv.litInv[best]
	}
	return best
}

// checkOrderHeap verifies the heap's structure: heap order under before,
// positions that match, and every unassigned constrained pair present.
func checkOrderHeap(t *testing.T, step int, r *cdclRun) {
	t.Helper()
	for pos, k := range r.heap {
		if r.heapPos[k] != int32(pos) {
			t.Fatalf("step %d: heapPos[%d] = %d, entry sits at %d", step, k, r.heapPos[k], pos)
		}
		if parent := (pos - 1) / 2; pos > 0 && r.before(k, r.heap[parent]) {
			t.Fatalf("step %d: entry %d at %d orders before its parent %d", step, k, pos, r.heap[parent])
		}
	}
	for k, id := range r.c.constrained {
		if r.st.a[id] == unknown && r.heapPos[k] < 0 {
			t.Fatalf("step %d: unassigned constrained pair %d (index %d) is not in the heap", step, id, k)
		}
	}
}

// TestOrderHeapMatchesLinearScan drives one escalated run's heuristic
// state through random bumps, decays, decisions with propagation,
// backjumps and one forced activity rescale, and checks after every step
// that pickBranch returns what the linear scan over c.constrained
// returns.
func TestOrderHeapMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sv *Solver
	for sv == nil {
		if inst := randomBetweenness(rng, 7, 6); inst.Solvable() {
			sv = gadgetSolver(t, inst)
		}
	}
	ci := 0
	for k, c := range sv.comps {
		if len(c.constrained) > len(sv.comps[ci].constrained) {
			ci = k
		}
	}
	c := sv.comps[ci]
	st := sv.scopedClone([]int{ci})
	defer sv.putState(st)
	r := newCDCLRun(sv, st, c)
	span := c.hi - c.lo
	rescaled, decisions, jumps := false, 0, 0
	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			r.bump(c.lo + rng.Int31n(span))
		case op < 5:
			r.decay()
		case op < 8:
			id := r.pickBranch()
			if id < 0 {
				break
			}
			decisions++
			r.marks = append(r.marks, st.mark())
			r.push(id, tagNone)
			if !r.propagateCDCL() {
				r.jumpTo(rng.Intn(r.level()))
				jumps++
			}
		default:
			if r.level() > 0 {
				r.jumpTo(rng.Intn(r.level()))
				jumps++
			}
		}
		if step == 2000 {
			// Push the next bump past the rescale threshold.
			r.varInc = 2 * varActRescale
			r.bump(c.constrained[rng.Intn(len(c.constrained))])
			rescaled = r.varInc < varActRescale
		}
		checkOrderHeap(t, step, r)
		if got, want := r.pickBranch(), refPickBranch(r); got != want {
			t.Fatalf("step %d: pickBranch = %d, linear scan = %d", step, got, want)
		}
	}
	if !rescaled || decisions == 0 || jumps == 0 {
		t.Fatalf("rescaled=%v decisions=%d jumps=%d: want every operation exercised", rescaled, decisions, jumps)
	}
}
