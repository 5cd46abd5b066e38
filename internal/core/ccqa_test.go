package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"currency/internal/gen"
	"currency/internal/osolve"
	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/spec"
)

// bruteCertain intersects query answers over brute-force Mod(S), each
// evaluated on the full current database. It returns nil when Mod(S) is
// empty.
func bruteCertain(t *testing.T, s *spec.Spec, q *query.Query) *query.Result {
	t.Helper()
	var acc *query.Result
	if err := s.EnumerateModels(func(m spec.Model) bool {
		res, err := query.Eval(q, query.DB(m.CurrentDB()))
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = res
		} else {
			acc = acc.Intersect(res)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return acc
}

// brutePossible unions query answers over brute-force Mod(S).
func brutePossible(t *testing.T, s *spec.Spec, q *query.Query) *query.Result {
	t.Helper()
	union := &query.Result{Cols: append([]string(nil), q.Head...)}
	seen := map[string]bool{}
	if err := s.EnumerateModels(func(m spec.Model) bool {
		res, err := query.Eval(q, query.DB(m.CurrentDB()))
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.Rows {
			if !seen[row.Key()] {
				seen[row.Key()] = true
				union.Rows = append(union.Rows, row)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return union
}

// checkCertain compares CertainAnswers with the brute-force intersection.
func checkCertain(t *testing.T, label string, s *spec.Spec, q *query.Query) {
	t.Helper()
	r, err := NewReasoner(s)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	fast, modEmpty, err := r.CertainAnswers(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	acc := bruteCertain(t, s, q)
	if modEmpty != (acc == nil) {
		t.Fatalf("%s: emptiness disagreement: fast=%v brute=%v", label, modEmpty, acc)
	}
	if !modEmpty && !fast.Equal(acc) {
		t.Errorf("%s: certain answers differ\n  query: %v\n  fast:  %v\n  brute: %v", label, q, fast, acc)
	}
}

// TestCertainAnswersMatchBruteForce differentially tests CCQA end to end:
// certain answers from the max-selection enumeration must equal the
// intersection of query answers over brute-force Mod(S), for random SP,
// CQ and FO queries on random specifications with constraints and
// copies. The FO queries include ones that range over the active domain,
// whose answers depend on relations they do not mention.
func TestCertainAnswersMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		cfg := gen.Default(seed)
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 2, 2
		cfg.Constraints, cfg.Copies = 2, 1
		s := gen.Random(cfg)
		rng := randFor(seed)
		var q *query.Query
		if seed%2 == 0 {
			q = gen.RandomSPQuery(rng, s.Relations[0].Schema, "Q", cfg.Domain)
		} else {
			q = gen.RandomCQQuery(rng, s, "Q", cfg.Domain)
		}
		checkCertain(t, fmt.Sprintf("seed %d", seed), s, q)
	}
	domain := 0
	for seed := int64(0); seed < 60; seed++ {
		cfg := gen.Default(seed)
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2+int(seed%2), 2, 2, 1
		cfg.Constraints, cfg.Copies = 1, 1
		s := gen.Random(cfg)
		q := gen.RandomFOQuery(randFor(seed), s, "Q", cfg.Domain)
		if p, err := query.Compile(q); err == nil && p.NeedsDomain() {
			domain++
		}
		checkCertain(t, fmt.Sprintf("FO seed %d", seed), s, q)
	}
	if domain == 0 {
		t.Error("no FO query ranged over the active domain")
	}
}

// TestPossibleAnswersMatchBruteForce checks the dual: the union of
// answers over all completions, for SP queries on one relation and FO
// queries on two or three.
func TestPossibleAnswersMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cfg := gen.Default(seed)
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 1, 2, 3, 2
		cfg.Constraints, cfg.Copies = 1, 0
		rng := randFor(seed)
		var s *spec.Spec
		var q *query.Query
		if seed < 25 {
			s = gen.Random(cfg)
			q = gen.RandomSPQuery(rng, s.Relations[0].Schema, "Q", cfg.Domain)
		} else {
			cfg.Relations, cfg.TuplesPerEntity, cfg.Attrs, cfg.Copies = 2+int(seed%2), 2, 1, 1
			s = gen.Random(cfg)
			q = gen.RandomFOQuery(rng, s, "Q", cfg.Domain)
		}

		r, err := NewReasoner(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fast, err := r.PossibleAnswers(q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if union := brutePossible(t, s, q); !fast.Equal(union) {
			t.Errorf("seed %d: possible answers differ\n  query: %v\n  fast:  %v\n  brute: %v", seed, q, fast, union)
		}
	}
}

// TestCertainAnswersDomainDependentQuery is the regression for a query
// whose answer depends on a relation it does not mention: ∀x ranges over
// the whole active domain, S's values included, so the query fails in
// every completion. Projecting the enumeration onto R alone made it
// certain.
func TestCertainAnswersDomainDependentQuery(t *testing.T) {
	s := spec.New()
	rt := relation.NewTemporal(relation.MustSchema("R", "eid", "a"))
	rt.MustAdd(relation.Tuple{relation.S("e1"), relation.I(1)})
	s.MustAddRelation(rt)
	st := relation.NewTemporal(relation.MustSchema("S", "eid", "b"))
	st.MustAdd(relation.Tuple{relation.S("f1"), relation.I(2)})
	st.MustAdd(relation.Tuple{relation.S("f1"), relation.I(3)})
	s.MustAddRelation(st)
	r := func(a, b query.Term) query.Formula { return query.Atom{Rel: "R", Terms: []query.Term{a, b}} }
	q := &query.Query{Name: "Q", Body: query.Forall{Vars: []string{"x"}, F: query.Exists{
		Vars: []string{"e"},
		F:    query.Or{Fs: []query.Formula{r(query.V("e"), query.V("x")), r(query.V("x"), query.V("e"))}},
	}}}

	re, err := NewReasoner(s)
	if err != nil {
		t.Fatal(err)
	}
	got, modEmpty, err := re.CertainAnswers(q)
	if err != nil || modEmpty {
		t.Fatalf("CertainAnswers: modEmpty=%v err=%v", modEmpty, err)
	}
	if want := bruteCertain(t, s, q); len(want.Rows) != 0 || len(got.Rows) != 0 {
		t.Fatalf("certain answers = %v, brute force = %v; want both empty", got, want)
	}
	poss, err := re.PossibleAnswers(q)
	if err != nil || len(poss.Rows) != 0 {
		t.Fatalf("possible answers = %v, %v; want empty", poss, err)
	}
}

// TestCertainAnswersBudget pins early exit under a budget. The spec has
// 2^8 current databases and the context is already cancelled, which the
// walk notices at its 64th budget probe. A query false everywhere
// empties the intersection on the first database, before that probe,
// so the answer is exact; a query true everywhere never empties, so
// the budget trips first and the verdict is an interruption.
func TestCertainAnswersBudget(t *testing.T) {
	s := spec.New()
	dt := relation.NewTemporal(relation.MustSchema("R", "eid", "a"))
	for e := 0; e < 8; e++ {
		dt.MustAdd(relation.Tuple{relation.S(fmt.Sprintf("e%d", e)), relation.I(0)})
		dt.MustAdd(relation.Tuple{relation.S(fmt.Sprintf("e%d", e)), relation.I(1)})
	}
	s.MustAddRelation(dt)
	r, err := NewReasoner(s)
	if err != nil {
		t.Fatal(err)
	}
	boolean := func(f query.Formula) *query.Query { return &query.Query{Name: "Q", Body: f} }
	r7 := boolean(query.Exists{Vars: []string{"e"},
		F: query.Atom{Rel: "R", Terms: []query.Term{query.V("e"), query.C(relation.I(7))}}})
	nonEmpty := boolean(query.Exists{Vars: []string{"e", "a"},
		F: query.Atom{Rel: "R", Terms: []query.Term{query.V("e"), query.V("a")}}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, modEmpty, err := r.CertainAnswersCtx(ctx, r7)
	if err != nil || modEmpty || res == nil || len(res.Rows) != 0 {
		t.Fatalf("false-everywhere query: res=%v modEmpty=%v err=%v; want an exact empty answer", res, modEmpty, err)
	}
	if _, _, err := r.CertainAnswersCtx(ctx, nonEmpty); !errors.Is(err, osolve.ErrInterrupted) {
		t.Fatalf("true-everywhere query: err = %v, want ErrInterrupted", err)
	}
	// Unbounded, the true-everywhere query is certain.
	res, _, err = r.CertainAnswers(nonEmpty)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("unbounded: %v, %v", res, err)
	}
}

// randFor seeds query generation independently of workload generation.
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed + 77)) }
