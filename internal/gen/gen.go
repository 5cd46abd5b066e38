// Package gen produces deterministic random workloads — specifications,
// denial constraints, copy networks and queries — for differential tests
// and for the benchmark harness that reproduces the paper's complexity
// tables as scaling experiments.
//
// Instances are generated from a hidden ground-truth timeline: each entity
// has a true chronological order of its tuples (their index order), base
// currency orders are random subsets of that timeline, and denial
// constraints are drawn from templates consistent with it. Generated
// specifications are therefore always syntactically valid, and those
// without contradictory copy orders are consistent.
package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"currency/internal/copyfn"
	"currency/internal/dc"
	"currency/internal/parse"
	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/spec"
)

// Config controls workload generation. All sizes are small integers; see
// Random for semantics.
type Config struct {
	Seed int64
	// Relations is the number of relations R0, R1, ...
	Relations int
	// Entities is the number of entities per relation.
	Entities int
	// TuplesPerEntity is the number of tuples per entity (its history
	// length).
	TuplesPerEntity int
	// Attrs is the number of non-EID attributes A0, A1, ...
	Attrs int
	// Domain is the number of distinct integer values per attribute;
	// small domains create the value collisions that make currency
	// reasoning interesting.
	Domain int
	// OrderDensity is the probability that a ground-truth pair (i before
	// j) is revealed as a base currency order.
	OrderDensity float64
	// Constraints is the number of random denial constraints.
	Constraints int
	// Copies is the number of copy functions; each imports into relation
	// R0..R{Relations-2} from the next relation, with full coverage.
	Copies int
	// CopyDensity is the fraction of target tuples that are copied.
	CopyDensity float64
}

// Default returns a small, interesting configuration.
func Default(seed int64) Config {
	return Config{
		Seed:            seed,
		Relations:       2,
		Entities:        2,
		TuplesPerEntity: 2,
		Attrs:           2,
		Domain:          3,
		OrderDensity:    0.3,
		Constraints:     2,
		Copies:          1,
		CopyDensity:     0.5,
	}
}

// Random generates a specification from the configuration. The same
// configuration always yields the same specification.
func Random(cfg Config) *spec.Spec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := spec.New()

	attrs := make([]string, cfg.Attrs+1)
	attrs[0] = "eid"
	for a := 0; a < cfg.Attrs; a++ {
		attrs[a+1] = fmt.Sprintf("A%d", a)
	}

	// Relations with ground-truth timelines: tuple order within an entity
	// is its chronological order.
	for ri := 0; ri < cfg.Relations; ri++ {
		sc := relation.MustSchema(fmt.Sprintf("R%d", ri), attrs...)
		dt := relation.NewTemporal(sc)
		for e := 0; e < cfg.Entities; e++ {
			for k := 0; k < cfg.TuplesPerEntity; k++ {
				t := make(relation.Tuple, sc.Arity())
				t[0] = relation.S(fmt.Sprintf("e%d", e))
				for a := 0; a < cfg.Attrs; a++ {
					t[a+1] = relation.I(int64(rng.Intn(cfg.Domain)))
				}
				dt.MustAdd(t)
			}
		}
		// Reveal random ground-truth pairs as base orders.
		for _, g := range dt.Entities() {
			for ai := 1; ai <= cfg.Attrs; ai++ {
				for x := 0; x < len(g.Members); x++ {
					for y := x + 1; y < len(g.Members); y++ {
						if rng.Float64() < cfg.OrderDensity {
							if err := dt.AddOrderIdx(ai, g.Members[x], g.Members[y]); err != nil {
								panic(err)
							}
						}
					}
				}
			}
		}
		s.MustAddRelation(dt)
	}

	// Copy functions: R{i} imports from R{i+1}, full coverage, rewriting
	// copied target tuples so the copying condition holds. Deeper sources
	// are processed first so a chain R0 ⇐ R1 ⇐ R2 copies values that are
	// already final.
	nonEID := attrs[1:]
	usedTargets := make(map[[2]interface{}]bool) // (rel, tuple) already mapped
	var copyOrder []int
	for c := 0; c < cfg.Copies && cfg.Relations >= 2; c++ {
		copyOrder = append(copyOrder, c)
	}
	sort.Slice(copyOrder, func(a, b int) bool {
		return copyOrder[a]%(cfg.Relations-1) > copyOrder[b]%(cfg.Relations-1)
	})
	for _, c := range copyOrder {
		ti := c % (cfg.Relations - 1)
		si := ti + 1
		tgt := s.Relations[ti]
		src := s.Relations[si]
		cf := copyfn.New(fmt.Sprintf("rho%d", c), tgt.Schema.Name, src.Schema.Name, nonEID, nonEID)
		for t := 0; t < tgt.Len(); t++ {
			key := [2]interface{}{tgt.Schema.Name, t}
			if usedTargets[key] || rng.Float64() >= cfg.CopyDensity {
				continue
			}
			sTuple := rng.Intn(src.Len())
			for a := 1; a <= cfg.Attrs; a++ {
				tgt.Tuples[t][a] = src.Tuples[sTuple][a]
			}
			cf.Set(t, sTuple)
			usedTargets[key] = true
		}
		if cf.Len() > 0 {
			s.MustAddCopy(cf)
		}
	}

	// Denial constraints drawn from templates.
	for k := 0; k < cfg.Constraints; k++ {
		rel := s.Relations[rng.Intn(len(s.Relations))]
		s.MustAddConstraint(RandomConstraint(rng, rel.Schema, fmt.Sprintf("c%d", k)))
	}
	return s
}

// RandomConstraint draws a denial constraint from one of three templates:
//
//	monotone:   s.A > t.A            → t ≺A s   (ϕ1-style)
//	correlated: t ≺A s               → t ≺B s   (ϕ3-style)
//	trigger:    s.A = c1 ∧ t.A = c2  → t ≺B s   (ϕ2-style)
func RandomConstraint(rng *rand.Rand, sc *relation.Schema, name string) *dc.Constraint {
	non := sc.NonEIDIndexes()
	attr := func() string { return sc.Attrs[non[rng.Intn(len(non))]] }
	c := &dc.Constraint{Name: name, Relation: sc.Name, Vars: []string{"s", "t"}}
	switch rng.Intn(3) {
	case 0:
		a := attr()
		c.Cmps = []dc.Comparison{{L: dc.AttrOp("s", a), Op: dc.OpGt, R: dc.AttrOp("t", a)}}
		c.Head = dc.OrderAtom{U: "t", V: "s", Attr: a}
	case 1:
		c.Orders = []dc.OrderAtom{{U: "t", V: "s", Attr: attr()}}
		c.Head = dc.OrderAtom{U: "t", V: "s", Attr: attr()}
	default:
		a := attr()
		v1 := relation.I(int64(rng.Intn(3)))
		v2 := relation.I(int64(rng.Intn(3)))
		c.Cmps = []dc.Comparison{
			{L: dc.AttrOp("s", a), Op: dc.OpEq, R: dc.ConstOp(v1)},
			{L: dc.AttrOp("t", a), Op: dc.OpEq, R: dc.ConstOp(v2)},
		}
		c.Head = dc.OrderAtom{U: "t", V: "s", Attr: attr()}
	}
	return c
}

// RandomSPQuery builds a random SP query over the named relation of the
// given schema: project a random non-empty subset of attributes, with an
// optional equality selection on one attribute.
func RandomSPQuery(rng *rand.Rand, sc *relation.Schema, name string, domain int) *query.Query {
	terms := make([]query.Term, sc.Arity())
	vars := make([]string, sc.Arity())
	for i := range terms {
		vars[i] = fmt.Sprintf("x%d", i)
		terms[i] = query.V(vars[i])
	}
	non := sc.NonEIDIndexes()
	// Choose head attributes.
	var head []string
	for _, ai := range non {
		if rng.Intn(2) == 0 {
			head = append(head, vars[ai])
		}
	}
	if len(head) == 0 {
		head = append(head, vars[non[0]])
	}
	var conj []query.Formula
	conj = append(conj, query.Atom{Rel: sc.Name, Terms: terms})
	if rng.Intn(2) == 0 {
		ai := non[rng.Intn(len(non))]
		conj = append(conj, query.Cmp{
			L: query.V(vars[ai]), Op: query.CmpEq,
			R: query.C(relation.I(int64(rng.Intn(domain)))),
		})
	}
	headSet := make(map[string]bool, len(head))
	for _, h := range head {
		headSet[h] = true
	}
	var exVars []string
	for _, v := range vars {
		if !headSet[v] {
			exVars = append(exVars, v)
		}
	}
	return &query.Query{
		Name: name,
		Head: head,
		Body: query.Exists{Vars: exVars, F: query.And{Fs: conj}},
	}
}

// RandomCQQuery builds a random conjunctive query joining two relations of
// the specification on their first non-EID attribute.
func RandomCQQuery(rng *rand.Rand, s *spec.Spec, name string, domain int) *query.Query {
	r1 := s.Relations[rng.Intn(len(s.Relations))]
	r2 := s.Relations[rng.Intn(len(s.Relations))]
	mk := func(prefix string, sc *relation.Schema, joinVar string) ([]query.Term, []string) {
		terms := make([]query.Term, sc.Arity())
		var names []string
		for i := range terms {
			v := fmt.Sprintf("%s%d", prefix, i)
			if i == 1 {
				v = joinVar
			}
			terms[i] = query.V(v)
			names = append(names, v)
		}
		return terms, names
	}
	t1, n1 := mk("u", r1.Schema, "j")
	t2, n2 := mk("v", r2.Schema, "j")
	head := []string{"j"}
	seen := map[string]bool{"j": true}
	var exVars []string
	for _, v := range append(n1, n2...) {
		if !seen[v] {
			seen[v] = true
			exVars = append(exVars, v)
		}
	}
	conj := []query.Formula{
		query.Atom{Rel: r1.Schema.Name, Terms: t1},
		query.Atom{Rel: r2.Schema.Name, Terms: t2},
	}
	if rng.Intn(2) == 0 {
		conj = append(conj, query.Cmp{
			L: query.V("j"), Op: query.CmpEq,
			R: query.C(relation.I(int64(rng.Intn(domain)))),
		})
	}
	return &query.Query{
		Name: name,
		Head: head,
		Body: query.Exists{Vars: exVars, F: query.And{Fs: conj}},
	}
}

// RandomFOQuery builds a random first-order query over the relations of
// the specification: atoms whose terms are variables (possibly repeated
// or shadowed) or constants, comparisons, ∧, ∨, ¬, ∃ and ∀, nested up to
// three deep. The head is the body's free variables, so the query may be
// boolean, and unsafe negation or an unrelativized ∀ makes some queries
// range over the active domain.
func RandomFOQuery(rng *rand.Rand, s *spec.Spec, name string, domain int) *query.Query {
	names := []string{"x", "y", "z"}
	var formula func(depth int, scope []string) query.Formula
	formula = func(depth int, scope []string) query.Formula {
		term := func() query.Term {
			if len(scope) > 0 && rng.Intn(4) != 0 {
				return query.V(scope[rng.Intn(len(scope))])
			}
			if rng.Intn(4) == 0 {
				return query.C(relation.S(fmt.Sprintf("e%d", rng.Intn(2))))
			}
			return query.C(relation.I(int64(rng.Intn(domain))))
		}
		if depth == 0 || rng.Intn(5) == 0 {
			if rng.Intn(3) == 0 {
				return query.Cmp{L: term(), Op: query.CmpOp(rng.Intn(6)), R: term()}
			}
			sc := s.Relations[rng.Intn(len(s.Relations))].Schema
			ts := make([]query.Term, sc.Arity())
			for i := range ts {
				ts[i] = term()
			}
			return query.Atom{Rel: sc.Name, Terms: ts}
		}
		sub := func() query.Formula { return formula(depth-1, scope) }
		switch rng.Intn(6) {
		case 0:
			return query.And{Fs: []query.Formula{sub(), sub()}}
		case 1:
			return query.Or{Fs: []query.Formula{sub(), sub()}}
		case 2:
			return query.Not{F: sub()}
		}
		v := names[rng.Intn(len(names))]
		f := formula(depth-1, append(append([]string(nil), scope...), v))
		if rng.Intn(3) == 0 {
			return query.Forall{Vars: []string{v}, F: f}
		}
		return query.Exists{Vars: []string{v}, F: f}
	}
	q := &query.Query{Name: name, Body: formula(1+rng.Intn(3), names[:rng.Intn(3)])}
	q.Head = q.FreeVars()
	return q
}

// RandomSource renders a random specification in the textual wire format
// of internal/parse — a load-test fixture generator for currencyd: the
// returned string registers directly via POST /specs.
func RandomSource(cfg Config) string {
	return parse.Marshal(Random(cfg))
}
