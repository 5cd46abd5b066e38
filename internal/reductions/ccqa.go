package reductions

import (
	"fmt"
	"sort"

	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/spec"
)

// CCQAGadget bundles a reduction's output for certain-current-query
// answering: the specification, the query, and the answer tuple whose
// certainty encodes the formula.
type CCQAGadget struct {
	Spec  *spec.Spec
	Query *query.Query
	Tuple relation.Tuple
}

// gateBuilder accumulates the Boolean-circuit atoms of the Theorem 3.5
// reduction (Figure 2): relations R01, ROr, RAnd, RNot encode the Boolean
// domain and gates, and fresh existential variables wire them together.
type gateBuilder struct {
	conj  []query.Formula
	exist []string
	next  int
}

func (g *gateBuilder) fresh(prefix string) string {
	g.next++
	v := fmt.Sprintf("%s%d", prefix, g.next)
	g.exist = append(g.exist, v)
	return v
}

// not wires v through the negation relation and returns the output var.
func (g *gateBuilder) not(v string) string {
	out := g.fresh("nb")
	e := g.fresh("ne")
	g.conj = append(g.conj, query.Atom{Rel: "RNot", Terms: []query.Term{
		query.V(e), query.V(v), query.V(out),
	}})
	return out
}

// gate2 wires a two-input gate of the named relation.
func (g *gateBuilder) gate2(rel, a, b string) string {
	out := g.fresh("gw")
	e := g.fresh("ge")
	g.conj = append(g.conj, query.Atom{Rel: rel, Terms: []query.Term{
		query.V(e), query.V(out), query.V(a), query.V(b),
	}})
	return out
}

func (g *gateBuilder) or(a, b string) string  { return g.gate2("ROr", a, b) }
func (g *gateBuilder) and(a, b string) string { return g.gate2("RAnd", a, b) }

// buildGateRelations adds the fixed instances I01, I∨, I∧, I¬ and Ib of
// Figure 2 to a specification.
func buildGateRelations(s *spec.Spec) error {
	add := func(name string, attrs []string, rows [][]int64) error {
		sc, err := relation.NewSchema(name, attrs...)
		if err != nil {
			return err
		}
		dt := relation.NewTemporal(sc)
		for i, row := range rows {
			t := make(relation.Tuple, len(row)+1)
			t[0] = relation.S(fmt.Sprintf("%s%d", name, i))
			for j, v := range row {
				t[j+1] = relation.I(v)
			}
			dt.MustAdd(t)
		}
		return s.AddRelation(dt)
	}
	if err := add("ROr", []string{"eid", "A", "A1", "A2"}, [][]int64{
		{0, 0, 0}, {1, 0, 1}, {1, 1, 0}, {1, 1, 1},
	}); err != nil {
		return err
	}
	if err := add("RAnd", []string{"eid", "A", "A1", "A2"}, [][]int64{
		{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 1, 1},
	}); err != nil {
		return err
	}
	if err := add("RNot", []string{"eid", "A", "Abar"}, [][]int64{
		{0, 1}, {1, 0},
	}); err != nil {
		return err
	}
	if err := add("R01", []string{"eid", "A"}, [][]int64{{1}, {0}}); err != nil {
		return err
	}
	return add("Rb", []string{"eid", "B"}, [][]int64{{1}})
}

// CCQAFromA2E3CNF builds the Theorem 3.5(1) gadget: given ϕ = ∀X ∃Y ψ with
// ψ in 3CNF, it constructs a specification (no denial constraints, no copy
// functions), a CQ query Q and a tuple t = (1) such that t is a certain
// current answer to Q iff ϕ is true. Completions of the RX instance
// enumerate the truth assignments of X; the query generates Y assignments
// via Cartesian products of R01 and evaluates ψ through gate relations.
func CCQAFromA2E3CNF(q QBF) (*CCQAGadget, error) {
	if len(q.Blocks) != 2 || q.Blocks[0].Exists || !q.Blocks[1].Exists || q.DNF {
		return nil, fmt.Errorf("reductions: CCQAFromA2E3CNF needs ∀∃ prefix with a 3CNF matrix, got %s", q)
	}
	xs, ys := q.Blocks[0].Vars, q.Blocks[1].Vars
	if len(xs) == 0 || len(ys) == 0 || len(q.Clauses) == 0 {
		return nil, fmt.Errorf("reductions: CCQAFromA2E3CNF needs non-empty X, Y and matrix")
	}
	s := spec.New()
	// IX: two tuples (i, 0) and (i, 1) per universal variable.
	scX := relation.MustSchema("RX", "eid", "Ax")
	ix := relation.NewTemporal(scX)
	for i := range xs {
		ix.MustAdd(relation.Tuple{relation.I(int64(i + 1)), relation.I(1)})
		ix.MustAdd(relation.Tuple{relation.I(int64(i + 1)), relation.I(0)})
	}
	if err := s.AddRelation(ix); err != nil {
		return nil, err
	}
	if err := buildGateRelations(s); err != nil {
		return nil, err
	}

	// Variable naming: xi / yj carry the truth values.
	xVar := make(map[int]string, len(xs))
	yVar := make(map[int]string, len(ys))
	g := &gateBuilder{}
	for i, v := range xs {
		xVar[v] = fmt.Sprintf("x%d", i)
		g.exist = append(g.exist, xVar[v])
		g.conj = append(g.conj, query.Atom{Rel: "RX", Terms: []query.Term{
			query.C(relation.I(int64(i + 1))), query.V(xVar[v]),
		}})
	}
	for j, v := range ys {
		yVar[v] = fmt.Sprintf("y%d", j)
		g.exist = append(g.exist, yVar[v])
		e := g.fresh("ye")
		g.conj = append(g.conj, query.Atom{Rel: "R01", Terms: []query.Term{
			query.V(e), query.V(yVar[v]),
		}})
	}
	litVar := func(l Literal) (string, error) {
		var base string
		if v, ok := xVar[l.Var]; ok {
			base = v
		} else if v, ok := yVar[l.Var]; ok {
			base = v
		} else {
			return "", fmt.Errorf("reductions: literal %v references an unquantified variable", l)
		}
		if l.Neg {
			return g.not(base), nil
		}
		return base, nil
	}
	var clauseOuts []string
	for _, cl := range q.Clauses {
		a, err := litVar(cl[0])
		if err != nil {
			return nil, err
		}
		b, err := litVar(cl[1])
		if err != nil {
			return nil, err
		}
		c, err := litVar(cl[2])
		if err != nil {
			return nil, err
		}
		clauseOuts = append(clauseOuts, g.or(g.or(a, b), c))
	}
	out := clauseOuts[0]
	for _, o := range clauseOuts[1:] {
		out = g.and(out, o)
	}
	// Bind the circuit output to Rb's constant 1 via the head variable w.
	e := g.fresh("be")
	g.conj = append(g.conj, query.Atom{Rel: "Rb", Terms: []query.Term{query.V(e), query.V("w")}})
	g.conj = append(g.conj, query.Cmp{L: query.V("w"), Op: query.CmpEq, R: query.V(out)})

	qq := &query.Query{
		Name: "Qccqa",
		Head: []string{"w"},
		Body: query.Exists{Vars: g.exist, F: query.And{Fs: g.conj}},
	}
	return &CCQAGadget{Spec: s, Query: qq, Tuple: relation.Tuple{relation.I(1)}}, nil
}

// CCQAFrom3SATData builds the Theorem 3.5 data-complexity gadget: from a
// 3CNF formula ψ it constructs a specification with fixed schemas RXd and
// RNegPsi, a fixed CQ query and tuple t = (1) such that t is a certain
// current answer iff ψ is unsatisfiable. Completions of RXd choose a truth
// assignment; the query finds a clause all of whose literals are false.
func CCQAFrom3SATData(psi QBF) (*CCQAGadget, error) {
	if len(psi.Blocks) != 1 || !psi.Blocks[0].Exists || psi.DNF {
		return nil, fmt.Errorf("reductions: CCQAFrom3SATData needs a plain 3CNF formula, got %s", psi)
	}
	s := spec.New()
	scX := relation.MustSchema("RXd", "eidx", "Ax")
	ix := relation.NewTemporal(scX)
	// Variables in ascending order, so the gadget is a pure function of ψ.
	seen := make(map[int]bool)
	var vars []int
	for _, cl := range psi.Clauses {
		for _, l := range cl {
			if !seen[l.Var] {
				seen[l.Var] = true
				vars = append(vars, l.Var)
			}
		}
	}
	sort.Ints(vars)
	for _, v := range vars {
		ix.MustAdd(relation.Tuple{relation.S(fmt.Sprintf("x%d", v)), relation.I(0)})
		ix.MustAdd(relation.Tuple{relation.S(fmt.Sprintf("x%d", v)), relation.I(1)})
	}
	if err := s.AddRelation(ix); err != nil {
		return nil, err
	}
	scN := relation.MustSchema("RNegPsi", "eid", "idC", "Px", "EIDx", "Bx", "w")
	in := relation.NewTemporal(scN)
	eid := 0
	for j, cl := range psi.Clauses {
		for p := 0; p < 3; p++ {
			falsifying := int64(0)
			if cl[p].Neg {
				falsifying = 1
			}
			eid++
			in.MustAdd(relation.Tuple{
				relation.S(fmt.Sprintf("n%d", eid)),
				relation.I(int64(j + 1)), relation.I(int64(p + 1)),
				relation.S(fmt.Sprintf("x%d", cl[p].Var)), relation.I(falsifying), relation.I(1),
			})
		}
	}
	if err := s.AddRelation(in); err != nil {
		return nil, err
	}

	qq := &query.Query{
		Name: "Qdata",
		Head: []string{"w"},
		Body: query.Exists{
			Vars: []string{"j", "x1", "x2", "x3", "v1", "v2", "v3", "e1", "e2", "e3"},
			F: query.And{Fs: []query.Formula{
				query.Atom{Rel: "RXd", Terms: []query.Term{query.V("x1"), query.V("v1")}},
				query.Atom{Rel: "RXd", Terms: []query.Term{query.V("x2"), query.V("v2")}},
				query.Atom{Rel: "RXd", Terms: []query.Term{query.V("x3"), query.V("v3")}},
				query.Atom{Rel: "RNegPsi", Terms: []query.Term{
					query.V("e1"), query.V("j"), query.C(relation.I(1)), query.V("x1"), query.V("v1"), query.V("w"),
				}},
				query.Atom{Rel: "RNegPsi", Terms: []query.Term{
					query.V("e2"), query.V("j"), query.C(relation.I(2)), query.V("x2"), query.V("v2"), query.V("w"),
				}},
				query.Atom{Rel: "RNegPsi", Terms: []query.Term{
					query.V("e3"), query.V("j"), query.C(relation.I(3)), query.V("x3"), query.V("v3"), query.V("w"),
				}},
			}},
		},
	}
	return &CCQAGadget{Spec: s, Query: qq, Tuple: relation.Tuple{relation.I(1)}}, nil
}

// CCQAFromQ3SAT builds the Theorem 3.5(2) gadget: from an arbitrary
// prenex QBF ϕ with 3CNF matrix it constructs a fixed specification (two
// relations Rc and RbF, one completion) and an FO query Q such that
// t = (1) is a certain current answer iff ϕ is true. Quantifier
// alternation in ϕ maps directly to ∃/∀ in Q, relativized to the Boolean
// domain stored in Rc.
func CCQAFromQ3SAT(q QBF) (*CCQAGadget, error) {
	if q.DNF {
		return nil, fmt.Errorf("reductions: CCQAFromQ3SAT needs a 3CNF matrix, got %s", q)
	}
	s := spec.New()
	scC := relation.MustSchema("Rc", "eid", "C")
	ic := relation.NewTemporal(scC)
	ic.MustAdd(relation.Tuple{relation.S("c1"), relation.I(0)})
	ic.MustAdd(relation.Tuple{relation.S("c2"), relation.I(1)})
	if err := s.AddRelation(ic); err != nil {
		return nil, err
	}
	scB := relation.MustSchema("RbF", "eid", "B")
	ib := relation.NewTemporal(scB)
	ib.MustAdd(relation.Tuple{relation.S("b1"), relation.I(1)})
	if err := s.AddRelation(ib); err != nil {
		return nil, err
	}

	varName := func(v int) string { return fmt.Sprintf("x%d", v) }
	boolRange := func(v string) query.Formula {
		return query.Exists{Vars: []string{v + "_e"}, F: query.Atom{
			Rel: "Rc", Terms: []query.Term{query.V(v + "_e"), query.V(v)},
		}}
	}
	// Matrix: each clause is a disjunction of equality tests.
	var clauses []query.Formula
	for _, cl := range q.Clauses {
		var lits []query.Formula
		for _, l := range cl {
			want := relation.I(1)
			if l.Neg {
				want = relation.I(0)
			}
			lits = append(lits, query.Cmp{L: query.V(varName(l.Var)), Op: query.CmpEq, R: query.C(want)})
		}
		clauses = append(clauses, query.Or{Fs: lits})
	}
	body := query.Formula(query.And{Fs: append(clauses,
		query.Exists{Vars: []string{"be"}, F: query.Atom{
			Rel: "RbF", Terms: []query.Term{query.V("be"), query.V("c")},
		}},
	)})
	// Wrap quantifier blocks inside-out.
	for bi := len(q.Blocks) - 1; bi >= 0; bi-- {
		blk := q.Blocks[bi]
		for vi := len(blk.Vars) - 1; vi >= 0; vi-- {
			v := varName(blk.Vars[vi])
			if blk.Exists {
				body = query.Exists{Vars: []string{v}, F: query.And{Fs: []query.Formula{boolRange(v), body}}}
			} else {
				body = query.Forall{Vars: []string{v}, F: query.Or{Fs: []query.Formula{query.Not{F: boolRange(v)}, body}}}
			}
		}
	}
	qq := &query.Query{Name: "Qfo", Head: []string{"c"}, Body: body}
	return &CCQAGadget{Spec: s, Query: qq, Tuple: relation.Tuple{relation.I(1)}}, nil
}
