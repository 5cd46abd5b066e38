package query

import (
	"fmt"
	"math/rand"
	"testing"

	"currency/internal/relation"
)

func db(t *testing.T) DB {
	t.Helper()
	emp := relation.NewInstance(relation.MustSchema("Emp", "eid", "name", "dept"))
	emp.MustAdd(relation.Tuple{relation.S("e1"), relation.S("Mary"), relation.S("RD")})
	emp.MustAdd(relation.Tuple{relation.S("e2"), relation.S("Bob"), relation.S("HR")})
	emp.MustAdd(relation.Tuple{relation.S("e3"), relation.S("Eve"), relation.S("RD")})
	dept := relation.NewInstance(relation.MustSchema("Dept", "dname", "budget"))
	dept.MustAdd(relation.Tuple{relation.S("RD"), relation.I(6000)})
	dept.MustAdd(relation.Tuple{relation.S("HR"), relation.I(2000)})
	return DB{"Emp": emp, "Dept": dept}
}

func TestEvalSelectProject(t *testing.T) {
	q := &Query{
		Name: "names",
		Head: []string{"n"},
		Body: Exists{Vars: []string{"e", "d"}, F: And{Fs: []Formula{
			Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}},
			Cmp{L: V("d"), Op: CmpEq, R: C(relation.S("RD"))},
		}}},
	}
	res, err := Eval(q, db(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("res = %v", res)
	}
	if !res.Contains(relation.Tuple{relation.S("Mary")}) || !res.Contains(relation.Tuple{relation.S("Eve")}) {
		t.Errorf("res = %v", res)
	}
}

func TestEvalJoin(t *testing.T) {
	q := &Query{
		Name: "budgetOf",
		Head: []string{"n", "b"},
		Body: Exists{Vars: []string{"e", "d"}, F: And{Fs: []Formula{
			Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}},
			Atom{Rel: "Dept", Terms: []Term{V("d"), V("b")}},
		}}},
	}
	res, err := Eval(q, db(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("res = %v", res)
	}
	if !res.Contains(relation.Tuple{relation.S("Bob"), relation.I(2000)}) {
		t.Errorf("res = %v", res)
	}
}

func TestEvalUnionAndNegation(t *testing.T) {
	// Names in RD or in HR — as a UCQ.
	ucq := &Query{
		Name: "u",
		Head: []string{"n"},
		Body: Or{Fs: []Formula{
			Exists{Vars: []string{"e1x", "d1"}, F: And{Fs: []Formula{
				Atom{Rel: "Emp", Terms: []Term{V("e1x"), V("n"), V("d1")}},
				Cmp{L: V("d1"), Op: CmpEq, R: C(relation.S("RD"))},
			}}},
			Exists{Vars: []string{"e2x", "d2"}, F: And{Fs: []Formula{
				Atom{Rel: "Emp", Terms: []Term{V("e2x"), V("n"), V("d2")}},
				Cmp{L: V("d2"), Op: CmpEq, R: C(relation.S("HR"))},
			}}},
		}},
	}
	res, err := Eval(ucq, db(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("res = %v", res)
	}
	// Departments where NOT every employee is Mary (FO with ¬ and ∀).
	fo := &Query{
		Name: "notAllMary",
		Head: []string{"d"},
		Body: And{Fs: []Formula{
			Exists{Vars: []string{"b"}, F: Atom{Rel: "Dept", Terms: []Term{V("d"), V("b")}}},
			Not{F: Forall{Vars: []string{"e", "n"}, F: Or{Fs: []Formula{
				Not{F: Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}}},
				Cmp{L: V("n"), Op: CmpEq, R: C(relation.S("Mary"))},
			}}}},
		}},
	}
	res, err = Eval(fo, db(t))
	if err != nil {
		t.Fatal(err)
	}
	// RD has Eve (non-Mary), HR has Bob: both qualify.
	if len(res.Rows) != 2 {
		t.Fatalf("res = %v", res)
	}
}

func TestEvalBooleanQuery(t *testing.T) {
	yes := &Query{
		Name: "anyHR",
		Head: nil,
		Body: Exists{Vars: []string{"e", "n", "d"}, F: And{Fs: []Formula{
			Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}},
			Cmp{L: V("d"), Op: CmpEq, R: C(relation.S("HR"))},
		}}},
	}
	res, err := Eval(yes, db(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("boolean true should yield one empty row, got %v", res)
	}
	no := &Query{
		Name: "anyIT",
		Head: nil,
		Body: Exists{Vars: []string{"e", "n", "d"}, F: And{Fs: []Formula{
			Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}},
			Cmp{L: V("d"), Op: CmpEq, R: C(relation.S("IT"))},
		}}},
	}
	res, err = Eval(no, db(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("boolean false should yield no rows, got %v", res)
	}
}

func TestEvalConstantsEnterDomain(t *testing.T) {
	// ∃e Emp(e, n, d) is false for n = "Ghost", but the constant must
	// still be considered: ∀n (n = "Ghost" → ¬∃e,d Emp(e,n,d)).
	q := &Query{
		Name: "ghostFree",
		Head: nil,
		Body: Forall{Vars: []string{"n"}, F: Or{Fs: []Formula{
			Not{F: Cmp{L: V("n"), Op: CmpEq, R: C(relation.S("Ghost"))}},
			Not{F: Exists{Vars: []string{"e", "d"}, F: Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}}}},
		}}},
	}
	res, err := Eval(q, db(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("expected true, got %v", res)
	}
}

func TestValidate(t *testing.T) {
	bad := &Query{Name: "bad", Head: []string{"x"}, Body: Atom{Rel: "Emp", Terms: []Term{V("x"), V("y"), V("z")}}}
	if err := bad.Validate(); err == nil {
		t.Error("free variables beyond head accepted")
	}
	dup := &Query{Name: "dup", Head: []string{"x", "x"}, Body: Atom{Rel: "R", Terms: []Term{V("x")}}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate head variable accepted")
	}
}

func TestClassify(t *testing.T) {
	sp := &Query{
		Name: "sp", Head: []string{"n"},
		Body: Exists{Vars: []string{"e", "d"}, F: And{Fs: []Formula{
			Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}},
			Cmp{L: V("d"), Op: CmpEq, R: C(relation.S("RD"))},
		}}},
	}
	if got := Classify(sp); got != LangSP {
		t.Errorf("sp classified as %v", got)
	}
	join := &Query{
		Name: "cq", Head: []string{"n"},
		Body: Exists{Vars: []string{"e", "d", "b"}, F: And{Fs: []Formula{
			Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}},
			Atom{Rel: "Dept", Terms: []Term{V("d"), V("b")}},
		}}},
	}
	if got := Classify(join); got != LangCQ {
		t.Errorf("join classified as %v", got)
	}
	ucq := &Query{Name: "u", Head: nil, Body: Or{Fs: []Formula{
		Exists{Vars: []string{"e", "n", "d"}, F: Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}}},
		Exists{Vars: []string{"d2", "b"}, F: Atom{Rel: "Dept", Terms: []Term{V("d2"), V("b")}}},
	}}}
	if got := Classify(ucq); got != LangUCQ {
		t.Errorf("ucq classified as %v", got)
	}
	efo := &Query{Name: "efo", Head: nil, Body: Exists{Vars: []string{"d", "b"}, F: And{Fs: []Formula{
		Atom{Rel: "Dept", Terms: []Term{V("d"), V("b")}},
		Or{Fs: []Formula{
			Cmp{L: V("b"), Op: CmpEq, R: C(relation.I(2000))},
			Cmp{L: V("b"), Op: CmpEq, R: C(relation.I(6000))},
		}},
	}}}}
	if got := Classify(efo); got != LangEFOPlus {
		t.Errorf("efo classified as %v", got)
	}
	fo := &Query{Name: "fo", Head: nil, Body: Not{F: Exists{Vars: []string{"d", "b"}, F: Atom{Rel: "Dept", Terms: []Term{V("d"), V("b")}}}}}
	if got := Classify(fo); got != LangFO {
		t.Errorf("fo classified as %v", got)
	}
	// A repeated variable in the atom is an implicit selection: not SP.
	rep := &Query{
		Name: "rep", Head: []string{"x"},
		Body: Exists{Vars: []string{"e"}, F: Atom{Rel: "Emp", Terms: []Term{V("e"), V("x"), V("x")}}},
	}
	if IsSP(rep) {
		t.Error("repeated-variable atom classified as SP")
	}
	// Inequality selections are not SP in the paper's sense.
	neq := &Query{
		Name: "neq", Head: []string{"n"},
		Body: Exists{Vars: []string{"e", "d"}, F: And{Fs: []Formula{
			Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}},
			Cmp{L: V("d"), Op: CmpNe, R: C(relation.S("RD"))},
		}}},
	}
	if IsSP(neq) {
		t.Error("inequality selection classified as SP")
	}
}

func TestAsSPShape(t *testing.T) {
	sp := &Query{
		Name: "sp", Head: []string{"n", "d"},
		Body: Exists{Vars: []string{"e"}, F: And{Fs: []Formula{
			Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}},
			Cmp{L: V("n"), Op: CmpEq, R: C(relation.S("Mary"))},
		}}},
	}
	shape, ok := AsSP(sp)
	if !ok {
		t.Fatal("sp not recognized")
	}
	if shape.Rel != "Emp" || len(shape.HeadPos) != 2 || shape.HeadPos[0] != 1 || shape.HeadPos[1] != 2 {
		t.Errorf("shape = %+v", shape)
	}
	if len(shape.ConstEq) != 1 || shape.ConstEq[0].Pos != 1 {
		t.Errorf("shape.ConstEq = %+v", shape.ConstEq)
	}
	if !IsIdentity(&Query{
		Name: "id", Head: []string{"a", "b", "c"},
		Body: Atom{Rel: "Emp", Terms: []Term{V("a"), V("b"), V("c")}},
	}) {
		t.Error("identity query not recognized")
	}
}

func TestRelations(t *testing.T) {
	q := &Query{Name: "q", Head: nil, Body: And{Fs: []Formula{
		Exists{Vars: []string{"e", "n", "d"}, F: Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}}},
		Not{F: Exists{Vars: []string{"d2", "b"}, F: Atom{Rel: "Dept", Terms: []Term{V("d2"), V("b")}}}},
	}}}
	rels := q.Relations()
	if len(rels) != 2 || rels[0] != "Dept" || rels[1] != "Emp" {
		t.Errorf("Relations = %v", rels)
	}
}

// bruteEval is the reference evaluator the planner is tested against. It
// shares no code with Eval: head assignments range over the active
// domain (every database value plus the query's constants), and the body
// is checked by structural recursion in which every quantifier iterates
// the whole domain.
func bruteEval(q *Query, d DB) *Result {
	seen := make(map[relation.Value]bool)
	var domain []relation.Value
	add := func(v relation.Value) {
		if !seen[v] {
			seen[v] = true
			domain = append(domain, v)
		}
	}
	for _, inst := range d {
		for _, t := range inst.Tuples {
			for _, v := range t {
				add(v)
			}
		}
	}
	bruteConsts(q.Body, add)
	env := map[string]relation.Value{}
	res := &Result{Cols: q.Head}
	rows := map[string]bool{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(q.Head) {
			if bruteHolds(q.Body, env, d, domain) {
				row := make(relation.Tuple, len(q.Head))
				for k, v := range q.Head {
					row[k] = env[v]
				}
				if !rows[row.Key()] {
					rows[row.Key()] = true
					res.Rows = append(res.Rows, row)
				}
			}
			return
		}
		for _, v := range domain {
			env[q.Head[i]] = v
			rec(i + 1)
		}
		delete(env, q.Head[i])
	}
	rec(0)
	res.Sort()
	return res
}

func bruteConsts(f Formula, add func(relation.Value)) {
	term := func(t Term) {
		if t.IsConst {
			add(t.Const)
		}
	}
	switch g := f.(type) {
	case Atom:
		for _, t := range g.Terms {
			term(t)
		}
	case Cmp:
		term(g.L)
		term(g.R)
	case And:
		for _, h := range g.Fs {
			bruteConsts(h, add)
		}
	case Or:
		for _, h := range g.Fs {
			bruteConsts(h, add)
		}
	case Not:
		bruteConsts(g.F, add)
	case Exists:
		bruteConsts(g.F, add)
	case Forall:
		bruteConsts(g.F, add)
	}
}

// bruteHolds evaluates f under env, whose bindings cover f's free
// variables.
func bruteHolds(f Formula, env map[string]relation.Value, d DB, domain []relation.Value) bool {
	val := func(t Term) relation.Value {
		if t.IsConst {
			return t.Const
		}
		return env[t.Var]
	}
	switch g := f.(type) {
	case Atom:
		inst, ok := d[g.Rel]
		if !ok {
			return false
		}
	tuples:
		for _, t := range inst.Tuples {
			if len(t) != len(g.Terms) {
				continue
			}
			for i, term := range g.Terms {
				if t[i] != val(term) {
					continue tuples
				}
			}
			return true
		}
		return false
	case Cmp:
		a, b := val(g.L), val(g.R)
		switch g.Op {
		case CmpEq:
			return a == b
		case CmpNe:
			return a != b
		}
		if a.Kind != b.Kind {
			return false
		}
		c := a.Compare(b)
		return (g.Op == CmpLt && c < 0) || (g.Op == CmpLe && c <= 0) ||
			(g.Op == CmpGt && c > 0) || (g.Op == CmpGe && c >= 0)
	case And:
		for _, h := range g.Fs {
			if !bruteHolds(h, env, d, domain) {
				return false
			}
		}
		return true
	case Or:
		for _, h := range g.Fs {
			if bruteHolds(h, env, d, domain) {
				return true
			}
		}
		return false
	case Not:
		return !bruteHolds(g.F, env, d, domain)
	case Exists:
		return bruteQuant(g.Vars, g.F, true, env, d, domain)
	case Forall:
		return bruteQuant(g.Vars, g.F, false, env, d, domain)
	}
	panic(fmt.Sprintf("bruteHolds: unknown formula %T", f))
}

// bruteQuant decides ∃vars f (exists) or ∀vars f, restoring any outer
// binding of a shadowed name on return.
func bruteQuant(vars []string, f Formula, exists bool, env map[string]relation.Value, d DB, domain []relation.Value) bool {
	if len(vars) == 0 {
		return bruteHolds(f, env, d, domain)
	}
	v := vars[0]
	old, had := env[v]
	defer func() {
		if had {
			env[v] = old
		} else {
			delete(env, v)
		}
	}()
	for _, x := range domain {
		env[v] = x
		if bruteQuant(vars[1:], f, exists, env, d, domain) == exists {
			return exists
		}
	}
	return !exists
}

// TestEvalMatchesBruteForce differentially tests the optimized evaluator
// against exhaustive active-domain evaluation on random small queries.
func TestEvalMatchesBruteForce(t *testing.T) {
	d := db(t)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		q := randomQuery(rng, trial)
		fast, err := Eval(q, d)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		slow := bruteEval(q, d)
		if !fast.Equal(slow) {
			t.Errorf("trial %d: fast=%v slow=%v query=%v", trial, fast, slow, q)
		}
	}
}

// randomQuery generates a small random query mixing joins, selections,
// disjunction and negation.
func randomQuery(rng *rand.Rand, id int) *Query {
	atomEmp := Atom{Rel: "Emp", Terms: []Term{V("e"), V("n"), V("d")}}
	atomDept := Atom{Rel: "Dept", Terms: []Term{V("d"), V("b")}}
	var f Formula
	switch rng.Intn(5) {
	case 0:
		f = And{Fs: []Formula{atomEmp, atomDept}}
	case 1:
		f = And{Fs: []Formula{atomEmp, Not{F: atomDept}}}
	case 2:
		f = Or{Fs: []Formula{
			And{Fs: []Formula{atomEmp, atomDept}},
			And{Fs: []Formula{atomEmp, Cmp{L: V("d"), Op: CmpEq, R: C(relation.S("HR"))}, Cmp{L: V("b"), Op: CmpEq, R: V("b")}}},
		}}
	case 3:
		f = And{Fs: []Formula{atomEmp, atomDept, Cmp{L: V("b"), Op: CmpGt, R: C(relation.I(2500))}}}
	default:
		f = And{Fs: []Formula{atomEmp, Forall{Vars: []string{"b2"}, F: Or{Fs: []Formula{
			Not{F: Atom{Rel: "Dept", Terms: []Term{V("d"), V("b2")}}},
			Cmp{L: V("b2"), Op: CmpGt, R: C(relation.I(1000))},
		}}}, Cmp{L: V("b"), Op: CmpEq, R: V("b")}, atomDept}}
	}
	return &Query{
		Name: "rq",
		Head: []string{"n"},
		Body: Exists{Vars: []string{"e", "d", "b"}, F: f},
	}
}
