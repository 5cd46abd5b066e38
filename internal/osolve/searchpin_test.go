package osolve

// Search-order pin: the exact effort counts of the two-phase search on
// betweenness gadgets (the Theorem 3.1 hardness gadget). Decisions,
// propagations, conflicts, learned clauses, backjumps and restarts are a
// fingerprint of the search itself — which literal is set, in what order
// and for what reason — so a change that only makes the search faster
// must leave every count here as it is. A change that is meant to alter
// the search (a new decision heuristic, watched-literal rule firing,
// clause minimization) re-derives this table in the same change. The
// hard-query workload of e2ebench selects its gadgets by these very
// counts, so an unnoticed change would silently change that benchmark's
// inputs as well.

import (
	"fmt"
	"math/rand"
	"testing"

	"currency/internal/reductions"
)

// effort is the search-order fingerprint of one solve.
type effort struct {
	Decisions, Propagations, Conflicts, Learned, Backjumps, Restarts uint64
}

func (c effort) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d}",
		c.Decisions, c.Propagations, c.Conflicts, c.Learned, c.Backjumps, c.Restarts)
}

func engineCounts(c EngineCounters) effort {
	return effort{c.Decisions, c.Propagations, c.Conflicts, c.LearnedClauses, c.Backjumps, c.Restarts}
}

func queryCounts(qs *QueryStats) effort {
	return effort{qs.Decisions, qs.Propagations, qs.Conflicts, qs.LearnedClauses, qs.Backjumps, qs.Restarts}
}

// hardQueryGadget draws a gadget of e2ebench's hard-query shape from a
// fixed seed: the first solvable 7-element, 6-triple betweenness
// instance, and a member pair i < j of its relation, drawn the way the
// workload draws its certain-order pairs.
func hardQueryGadget(t testing.TB, seed int64) (sv *Solver, i, j int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for {
		inst := randomBetweenness(rng, 7, 6)
		if !inst.Solvable() {
			continue
		}
		sv = gadgetSolver(t, inst)
		n := sv.Spec.Relations[0].Len()
		i = rng.Intn(n - 1)
		j = i + 1 + rng.Intn(n-1-i)
		return sv, i, j
	}
}

// TestSearchCountsPinned replays the hard-query COP shape — a warm-up
// consistency check that escalates the base search, then one certain-
// order query that escalates again under its assumption — and the
// consistency solves of currencybench's hardness table, and checks every
// effort count against the committed table. One worker keeps the counts
// independent of scheduling: with several, the first unsatisfiable
// component stops the others' sweep wherever it has got to.
func TestSearchCountsPinned(t *testing.T) {
	// Seeds whose gadget passes e2ebench's hard-query filter (the query
	// learns clauses and makes 9000–14000 propagations).
	hardQuery := []struct {
		seed        int64
		base, query effort
	}{
		{2, effort{5217, 19824, 114, 81, 79, 1}, effort{1684, 10518, 73, 38, 35, 0}},
		{3, effort{5273, 21087, 109, 75, 73, 1}, effort{1827, 12507, 82, 49, 40, 0}},
		{9, effort{4097, 16029, 114, 81, 74, 1}, effort{2221, 13575, 98, 65, 57, 1}},
		{21, effort{3823, 13571, 75, 43, 42, 0}, effort{1940, 12805, 110, 77, 59, 1}},
		{29, effort{3943, 15386, 115, 83, 78, 1}, effort{1794, 11645, 78, 44, 39, 0}},
		{36, effort{5012, 19218, 98, 66, 66, 1}, effort{1474, 9352, 62, 30, 28, 0}},
		{47, effort{3013, 8583, 72, 40, 40, 0}, effort{2218, 11515, 106, 74, 66, 0}},
		{55, effort{4511, 18863, 116, 83, 73, 1}, effort{1786, 13480, 102, 69, 61, 1}},
	}
	for _, c := range hardQuery {
		sv, i, j := hardQueryGadget(t, c.seed)
		sv.SetWorkers(1)
		sv.Consistent()
		base := engineCounts(sv.Stats().Counters())
		var qs QueryStats
		if _, err := sv.CertainPairStats("R", "A", i, j, &qs); err != nil {
			t.Fatal(err)
		}
		if got := queryCounts(&qs); base != c.base || got != c.query {
			t.Errorf("hard-query seed %d (pair %d≺%d): base %v, query %v; want base %v, query %v",
				c.seed, i, j, base, got, c.base, c.query)
		}
	}

	// currencybench -table hardness: instance seed 31n+t, fresh solver,
	// one consistency check; then one certain-order query on the warm
	// solver.
	hardness := []struct {
		n, t        int
		cdcl        bool
		base, query effort
	}{
		{4, 2, false, effort{594, 1573, 337, 0, 0, 0}, effort{193, 732, 175, 0, 0, 0}},
		{4, 2, true, effort{361, 664, 47, 14, 12, 0}, effort{72, 299, 36, 3, 3, 0}},
		{4, 3, false, effort{10940, 48794, 10388, 0, 0, 0}, effort{5238, 24262, 5204, 0, 0, 0}},
		{4, 3, true, effort{801, 1601, 56, 23, 20, 0}, effort{109, 554, 38, 5, 3, 0}},
		{6, 6, true, effort{3754, 24185, 158, 125, 110, 1}, effort{1604, 12395, 109, 76, 67, 1}},
		{9, 12, true, effort{4958, 45117, 144, 111, 96, 1}, effort{1385, 25432, 112, 79, 70, 1}},
	}
	for _, c := range hardness {
		rng := rand.New(rand.NewSource(int64(31*c.n + c.t)))
		inst := reductions.BetweennessInstance{N: c.n}
		for k := 0; k < c.t; k++ {
			p := rng.Perm(c.n)
			inst.Triples = append(inst.Triples, [3]int{p[0], p[1], p[2]})
		}
		sv := gadgetSolver(t, inst)
		sv.SetCDCL(c.cdcl)
		sv.SetWorkers(1)
		sv.Consistent()
		base := engineCounts(sv.Stats().Counters())
		var qs QueryStats
		if _, err := sv.CertainPairStats("R", "A", 0, 1, &qs); err != nil {
			t.Fatal(err)
		}
		if got := queryCounts(&qs); base != c.base || got != c.query {
			t.Errorf("hardness n=%d t=%d cdcl=%v: base %v, query %v; want base %v, query %v",
				c.n, c.t, c.cdcl, base, got, c.base, c.query)
		}
	}
}

// BenchmarkHardQueryCOP times the certain-order query of the pinned
// hard-query gadgets on warm solvers; one op is one query. Each query
// escalates to CDCL under its assumption, so this is the search cost
// behind e2ebench's hard-query cop class, without server or wire.
func BenchmarkHardQueryCOP(b *testing.B) {
	type gadget struct {
		sv   *Solver
		i, j int
	}
	var gs []gadget
	for _, seed := range []int64{2, 3, 9, 21, 29, 36, 47, 55} {
		sv, i, j := hardQueryGadget(b, seed)
		sv.Consistent()
		gs = append(gs, gadget{sv, i, j})
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		g := gs[n%len(gs)]
		if _, err := g.sv.CertainPair("R", "A", g.i, g.j); err != nil {
			b.Fatal(err)
		}
	}
}
