package osolve

import (
	"testing"

	"currency/internal/dc"
	"currency/internal/gen"
	"currency/internal/paperdb"
	"currency/internal/relation"
	"currency/internal/spec"
)

// TestSolverOnPaperSpec checks solver internals on the S0 fixture.
func TestSolverOnPaperSpec(t *testing.T) {
	s := paperdb.SpecS0()
	sv, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.Consistent() {
		t.Fatal("S0 must be consistent")
	}
	if sv.RuleCount() == 0 {
		t.Error("expected ground rules from ϕ1–ϕ4 and ρ")
	}
	// Blocks: Emp e1 × 5 attrs + Dept R&D × 4 attrs = 9 blocks (other
	// entities are singletons).
	if got := len(sv.Blocks()); got != 9 {
		t.Errorf("blocks = %d, want 9", got)
	}
	// A model satisfies everything and matches Example 3.3's LST(Emp).
	model, ok := sv.OneModel()
	if !ok {
		t.Fatal("no model found")
	}
	lst := model["Emp"].CurrentInstance()
	emp, _ := s.Relation("Emp")
	if !lst.Tuples[0].Equal(emp.Tuples[2]) {
		t.Errorf("LST(e1) = %v, want s3", lst.Tuples[0])
	}
}

// TestSatWithAssumptions forces an orientation and checks both directions.
func TestSatWithAssumptions(t *testing.T) {
	s := paperdb.SpecS0()
	sv, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	// salary order s1 vs s3 is forced by ϕ1: s1 ≺ s3 only.
	lit, sameEntity, err := sv.LitFor("Emp", "salary", 0, 2)
	if err != nil || !sameEntity {
		t.Fatalf("LitFor: %v %v", sameEntity, err)
	}
	if !sv.SatWith([]Lit{lit}) {
		t.Error("forced direction should be satisfiable")
	}
	if sv.SatWith([]Lit{{Block: lit.Block, I: lit.J, J: lit.I}}) {
		t.Error("anti-ϕ1 direction should be unsatisfiable")
	}
	// LN order s2 vs s3 is free: both directions satisfiable.
	lit2, _, err := sv.LitFor("Emp", "LN", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !sv.SatWith([]Lit{lit2}) || !sv.SatWith([]Lit{{Block: lit2.Block, I: lit2.J, J: lit2.I}}) {
		t.Error("free pair should be satisfiable in both directions")
	}
}

// TestCertainPairCrossEntity checks COP semantics across entities:
// never certain unless the specification is inconsistent.
func TestCertainPairCrossEntity(t *testing.T) {
	s := paperdb.SpecS0()
	sv, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	// s3 (e1) vs s4 (e2): incomparable.
	certain, err := sv.CertainPair("Emp", "salary", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if certain {
		t.Error("cross-entity pair cannot be certain in a consistent spec")
	}
}

// TestEnumerateLimit checks the limit/truncation contract.
func TestEnumerateLimit(t *testing.T) {
	s := paperdb.SpecS0()
	sv, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	all, complete := sv.EnumerateCurrentDBs(0)
	if !complete || len(all) == 0 {
		t.Fatalf("full enumeration failed: %d, %v", len(all), complete)
	}
	few, complete := sv.EnumerateCurrentDBs(1)
	if complete && len(all) > 1 {
		t.Error("limit=1 should report truncation when more DBs exist")
	}
	if len(few) != 1 {
		t.Errorf("limit=1 returned %d", len(few))
	}
	// Projection to Emp only: Example 3.3 says exactly one projected DB.
	empOnly, complete := sv.EnumerateCurrentDBs(0, "Emp")
	if !complete || len(empOnly) != 1 {
		t.Errorf("projected enumeration = %d DBs (complete=%v), want 1", len(empOnly), complete)
	}
	if _, hasDept := empOnly[0]["Dept"]; hasDept {
		t.Error("projection must drop unlisted relations")
	}
}

// TestWalkCurrentDBs checks the streaming walk against its collector:
// the same distinct databases, projected or not, and a walk that stops
// after the first database reports that it did not finish.
func TestWalkCurrentDBs(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(testConfig(seed))
		sv, err := New(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, rels := range [][]string{nil, {s.Relations[0].Schema.Name}} {
			all, _ := sv.EnumerateCurrentDBs(0, rels...)
			want := make(map[string]bool)
			for _, db := range all {
				want[db.Key()] = true
				if len(rels) > 0 && len(db) != 1 {
					t.Fatalf("seed %d: projected database holds %d relations", seed, len(db))
				}
			}
			got := 0
			complete, err := sv.WalkCurrentDBs(Budget{}, rels, func(db CurrentDB) bool {
				if !want[db.Key()] {
					t.Errorf("seed %d: walk yielded a database the collector lacks", seed)
				}
				got++
				return true
			})
			if err != nil || !complete || got != len(all) {
				t.Fatalf("seed %d: walk yielded %d of %d (complete=%v, err=%v)", seed, got, len(all), complete, err)
			}
			got = 0
			complete, err = sv.WalkCurrentDBs(Budget{}, rels, func(CurrentDB) bool {
				got++
				return false
			})
			if err != nil || got != min(1, len(all)) || (len(all) > 1 && complete) {
				t.Fatalf("seed %d: stopped walk yielded %d of %d (complete=%v, err=%v)", seed, got, len(all), complete, err)
			}
		}
	}
}

// TestHeadFalseRuleMakesInconsistent exercises the deny-rule path.
func TestHeadFalseRuleMakesInconsistent(t *testing.T) {
	sc := relation.MustSchema("R", "eid", "A")
	dt := relation.NewTemporal(sc)
	dt.MustAdd(relation.Tuple{relation.S("e"), relation.I(1)})
	dt.MustAdd(relation.Tuple{relation.S("e"), relation.I(2)})
	s := spec.New()
	s.MustAddRelation(dt)
	// Deny both orientations: ∀s,t: s ≺A t → ⊥ fires on any ordered pair,
	// and entities with ≥2 tuples must order them — inconsistent.
	s.MustAddConstraint(&dc.Constraint{
		Name: "deny", Relation: "R", Vars: []string{"s", "t"},
		Orders: []dc.OrderAtom{{U: "s", V: "t", Attr: "A"}},
		Head:   dc.OrderAtom{U: "s", V: "s", Attr: "A"},
	})
	sv, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if sv.Consistent() {
		t.Error("total deny must be inconsistent for a 2-tuple entity")
	}
	// With singleton entities there is nothing to order: consistent.
	sc2 := relation.MustSchema("R", "eid", "A")
	dt2 := relation.NewTemporal(sc2)
	dt2.MustAdd(relation.Tuple{relation.S("e1"), relation.I(1)})
	dt2.MustAdd(relation.Tuple{relation.S("e2"), relation.I(2)})
	s2 := spec.New()
	s2.MustAddRelation(dt2)
	s2.MustAddConstraint(&dc.Constraint{
		Name: "deny", Relation: "R", Vars: []string{"s", "t"},
		Orders: []dc.OrderAtom{{U: "s", V: "t", Attr: "A"}},
		Head:   dc.OrderAtom{U: "s", V: "s", Attr: "A"},
	})
	sv2, err := New(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !sv2.Consistent() {
		t.Error("singleton entities have trivial completions")
	}
}

// TestBaseOrderConflictDetected checks that contradictory base orders
// surface as inconsistency through propagation (not a panic).
func TestBaseOrderConflictDetected(t *testing.T) {
	sc := relation.MustSchema("R", "eid", "A")
	dt := relation.NewTemporal(sc)
	dt.MustAdd(relation.Tuple{relation.S("e"), relation.I(1)})
	dt.MustAdd(relation.Tuple{relation.S("e"), relation.I(2)})
	dt.MustAdd(relation.Tuple{relation.S("e"), relation.I(3)})
	dt.MustAddOrder("A", 0, 1)
	dt.MustAddOrder("A", 1, 2)
	dt.MustAddOrder("A", 2, 0) // cycle via transitivity
	s := spec.New()
	s.MustAddRelation(dt)
	// Validate would reject this spec; the solver must also handle it if
	// reached via New (which validates first). Check New's error.
	if _, err := New(s); err == nil {
		t.Error("cyclic base order must be rejected by validation")
	}
}
