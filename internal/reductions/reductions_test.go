package reductions

import (
	"math/rand"
	"testing"

	"currency/internal/core"
	"currency/internal/parse"
	"currency/internal/spec"
)

// TestQBFEval sanity-checks the brute-force oracle on known formulas.
func TestQBFEval(t *testing.T) {
	x, y := 0, 1
	pos := func(v int) Literal { return Literal{Var: v} }
	neg := func(v int) Literal { return Literal{Var: v, Neg: true} }

	// ∃x ∀y (x ∧ x ∧ x) in DNF: true (choose x = 1).
	q1 := QBF{
		Blocks:  []Block{{Exists: true, Vars: []int{x}}, {Exists: false, Vars: []int{y}}},
		Clauses: []Clause{{pos(x), pos(x), pos(x)}},
		DNF:     true,
	}
	if !q1.Eval() {
		t.Error("∃x∀y(x∧x∧x) should be true")
	}
	// ∃x ∀y (x ∧ y ∧ y) in DNF: false (y = 0 kills the only term).
	q2 := QBF{
		Blocks:  []Block{{Exists: true, Vars: []int{x}}, {Exists: false, Vars: []int{y}}},
		Clauses: []Clause{{pos(x), pos(y), pos(y)}},
		DNF:     true,
	}
	if q2.Eval() {
		t.Error("∃x∀y(x∧y∧y) should be false")
	}
	// ∀x ∃y ((x∨y∨y) ∧ (¬x∨¬y∨¬y)): true (choose y = ¬x).
	q3 := QBF{
		Blocks:  []Block{{Exists: false, Vars: []int{x}}, {Exists: true, Vars: []int{y}}},
		Clauses: []Clause{{pos(x), pos(y), pos(y)}, {neg(x), neg(y), neg(y)}},
		DNF:     false,
	}
	if !q3.Eval() {
		t.Error("∀x∃y((x∨y)∧(¬x∨¬y)) should be true")
	}
}

// TestCPSReductionMatchesQBF validates the Theorem 3.1 reduction: the
// gadget specification is consistent iff the ∃∀3DNF formula is true.
func TestCPSReductionMatchesQBF(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		m, n := 1+rng.Intn(2), 1+rng.Intn(2)
		q := RandomQBF(rng, []int{m, n}, true, 1+rng.Intn(3), true)
		s, err := CPSFromE2ADNF(q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReasoner(s)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Eval()
		if got := r.Consistent(); got != want {
			t.Errorf("trial %d: CPS(gadget)=%v, QBF=%v\n  formula: %s", trial, got, want, q)
		}
	}
}

// TestBetweennessReduction validates the Theorem 3.1 data-complexity
// reduction against brute-force Betweenness solving.
func TestBetweennessReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(2)
		nt := 1 + rng.Intn(2)
		inst := BetweennessInstance{N: n}
		for k := 0; k < nt; k++ {
			p := rng.Perm(n)
			inst.Triples = append(inst.Triples, [3]int{p[0], p[1], p[2]})
		}
		s, err := CPSFromBetweenness(inst)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReasoner(s)
		if err != nil {
			t.Fatal(err)
		}
		want := inst.Solvable()
		if got := r.Consistent(); got != want {
			t.Errorf("trial %d: CPS(betweenness gadget)=%v, brute force=%v\n  instance: %+v",
				trial, got, want, inst)
		}
	}
}

// TestCOPReductionMatchesSAT validates the Theorem 3.4 data-complexity
// reduction: the currency order Ot is certain iff the 3CNF formula is
// unsatisfiable. The same gadget decides DCIP.
func TestCOPReductionMatchesSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		psi := Random3SAT(rng, 2+rng.Intn(2), 1+rng.Intn(3))
		g, err := COPFrom3SAT(psi)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReasoner(g.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Consistent() {
			t.Fatalf("trial %d: COP gadget must be consistent", trial)
		}
		var reqs []core.OrderRequirement
		for _, rq := range g.Requirements() {
			reqs = append(reqs, core.OrderRequirement{Rel: rq.Rel, Attr: rq.Attr, I: rq.I, J: rq.J})
		}
		certain, err := r.CertainOrder(reqs)
		if err != nil {
			t.Fatal(err)
		}
		want := !psi.Satisfiable()
		if certain != want {
			t.Errorf("trial %d: COP(gadget)=%v, ¬SAT=%v\n  formula: %s", trial, certain, want, psi)
		}
		det, err := r.Deterministic("RC")
		if err != nil {
			t.Fatal(err)
		}
		if det != want {
			t.Errorf("trial %d: DCIP(gadget)=%v, ¬SAT=%v\n  formula: %s", trial, det, want, psi)
		}
	}
}

// TestCCQACQReductionMatchesQBF validates the Theorem 3.5(1) reduction:
// (1) is a certain current answer iff the ∀∃3CNF formula is true.
func TestCCQACQReductionMatchesQBF(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		m, n := 1+rng.Intn(2), 1+rng.Intn(2)
		q := RandomQBF(rng, []int{m, n}, false, 1+rng.Intn(3), false)
		g, err := CCQAFromA2E3CNF(q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReasoner(g.Spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.IsCertainAnswer(g.Query, g.Tuple)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Eval()
		if got != want {
			t.Errorf("trial %d: CCQA(gadget)=%v, QBF=%v\n  formula: %s", trial, got, want, q)
		}
	}
}

// TestCCQADataReductionMatchesSAT validates the Theorem 3.5 data
// complexity reduction: (1) is certain iff the formula is unsatisfiable.
func TestCCQADataReductionMatchesSAT(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 15; trial++ {
		psi := Random3SAT(rng, 2+rng.Intn(2), 1+rng.Intn(3))
		g, err := CCQAFrom3SATData(psi)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReasoner(g.Spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.IsCertainAnswer(g.Query, g.Tuple)
		if err != nil {
			t.Fatal(err)
		}
		want := !psi.Satisfiable()
		if got != want {
			t.Errorf("trial %d: CCQA-data(gadget)=%v, ¬SAT=%v\n  formula: %s", trial, got, want, psi)
		}
	}
	// Larger gadgets with clause ratios from 2 to 8, so that both
	// verdicts occur: the certain-answer walk stops at the first current
	// database with an empty answer, and must not stop on a certain one.
	seen := map[bool]int{}
	for trial := 0; trial < 30; trial++ {
		vars := 3 + trial%3
		psi := Random3SAT(rng, vars, 2*vars+rng.Intn(6*vars))
		g, err := CCQAFrom3SATData(psi)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReasoner(g.Spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.IsCertainAnswer(g.Query, g.Tuple)
		if err != nil {
			t.Fatal(err)
		}
		if want := !psi.Satisfiable(); got != want {
			t.Errorf("large trial %d: CCQA-data(gadget)=%v, ¬SAT=%v\n  formula: %s", trial, got, want, psi)
		}
		seen[got]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Errorf("large gadgets did not cover both verdicts: %v", seen)
	}
}

// TestCCQADataGadgetDeterministic pins that the data gadget is a pure
// function of ψ: two builds of one formula marshal to the same text.
func TestCCQADataGadgetDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		psi := Random3SAT(rng, 6, 8)
		first := ""
		for build := 0; build < 5; build++ {
			g, err := CCQAFrom3SATData(psi)
			if err != nil {
				t.Fatal(err)
			}
			text := parse.Marshal(g.Spec, g.Query)
			if build == 0 {
				first = text
			} else if text != first {
				t.Fatalf("trial %d: build %d differs:\n%s\nvs\n%s", trial, build, text, first)
			}
		}
	}
}

// TestCCQAFOReductionMatchesQBF validates the Theorem 3.5(2) reduction:
// the FO query returns (1) iff the quantified formula is true.
func TestCCQAFOReductionMatchesQBF(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		blocks := []int{1 + rng.Intn(2), 1 + rng.Intn(2)}
		if rng.Intn(2) == 0 {
			blocks = append(blocks, 1+rng.Intn(2))
		}
		q := RandomQBF(rng, blocks, rng.Intn(2) == 0, 1+rng.Intn(3), false)
		g, err := CCQAFromQ3SAT(q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReasoner(g.Spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.IsCertainAnswer(g.Query, g.Tuple)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Eval()
		if got != want {
			t.Errorf("trial %d: CCQA-FO(gadget)=%v, QBF=%v\n  formula: %s", trial, got, want, q)
		}
	}
}

// TestCPPReductionMatchesQBF validates the Theorem 5.1(3) reduction: the
// empty copy functions are currency preserving for the gadget query iff
// the ∀∃3CNF formula is true, under the conservative extension space.
func TestCPPReductionMatchesQBF(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 8; trial++ {
		q := RandomQBF(rng, []int{1, 1}, false, 1+rng.Intn(2), false)
		g, err := CPPFromA2E3CNF(q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := core.NewReasoner(g.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Consistent() {
			t.Fatalf("trial %d: CPP gadget must be consistent", trial)
		}
		got, err := r.CurrencyPreservingIn(g.Query, core.ConservativeAtomSpace)
		if err != nil {
			t.Fatal(err)
		}
		want := q.Eval()
		if got != want {
			t.Errorf("trial %d: CPP(gadget)=%v, QBF=%v\n  formula: %s", trial, got, want, q)
		}
	}
}

// TestGadgetSizes documents the polynomial size of each gadget: tuples and
// constraints grow linearly with the formula.
func TestGadgetSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	q := RandomQBF(rng, []int{3, 3}, true, 5, true)
	s, err := CPSFromE2ADNF(q)
	if err != nil {
		t.Fatal(err)
	}
	rv, _ := s.Relation("RV")
	if want := 2*3 + 2*3 + 8; rv.Len() != want {
		t.Errorf("CPS gadget has %d tuples, want %d", rv.Len(), want)
	}
	count := func(sp *spec.Spec) int {
		total := 0
		for _, r := range sp.Relations {
			total += r.Len()
		}
		return total
	}
	psi := Random3SAT(rng, 4, 6)
	g, err := COPFrom3SAT(psi)
	if err != nil {
		t.Fatal(err)
	}
	if want := 6*3 + 1; count(g.Spec) != want {
		t.Errorf("COP gadget has %d tuples, want %d", count(g.Spec), want)
	}
}
