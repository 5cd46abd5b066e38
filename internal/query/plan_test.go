package query

import (
	"fmt"
	"math/rand"
	"testing"

	"currency/internal/relation"
)

// chooser supplies a generator's choices: a seeded rand.Rand for the
// differential test, the fuzzer's bytes for FuzzEvalPlan.
type chooser interface{ Intn(n int) int }

// byteChooser reads choices from data and returns 0 once it runs out.
type byteChooser struct {
	data []byte
	i    int
}

func (c *byteChooser) Intn(n int) int {
	if c.i >= len(c.data) {
		return 0
	}
	v := int(c.data[c.i])
	c.i++
	return v % n
}

// randomArity gives each relation the generator may mention its arity.
// E is present but empty; M is absent from every database.
var randomArity = map[string]int{"R": 2, "S": 3, "E": 2, "M": 1}

var randomRels = []string{"R", "S", "E", "M"}

// randomValues is the value pool of databases and query constants; it
// mixes kinds so comparisons across kinds are exercised.
var randomValues = []relation.Value{relation.I(0), relation.I(1), relation.I(2), relation.S("a")}

func randomDB(c chooser) DB {
	d := DB{}
	for _, name := range []string{"R", "S", "E"} {
		attrs := make([]string, randomArity[name])
		for i := range attrs {
			attrs[i] = fmt.Sprintf("c%d", i)
		}
		inst := relation.NewInstance(relation.MustSchema(name, attrs...))
		if name != "E" {
			for n := c.Intn(5); n > 0; n-- {
				t := make(relation.Tuple, len(attrs))
				for i := range t {
					t[i] = randomValues[c.Intn(len(randomValues))]
				}
				inst.MustAdd(t)
			}
		}
		d[name] = inst
	}
	return d
}

var randomVarNames = []string{"x", "y", "z"}

// randomFormula builds a formula over the names in scope. Quantifiers
// may re-bind a name already in scope, so shadowing is exercised.
func randomFormula(c chooser, depth int, scope []string) Formula {
	term := func() Term {
		if len(scope) > 0 && c.Intn(4) != 0 {
			return V(scope[c.Intn(len(scope))])
		}
		return C(randomValues[c.Intn(len(randomValues))])
	}
	leaf := func() Formula {
		if c.Intn(3) == 0 {
			return Cmp{L: term(), Op: CmpOp(c.Intn(6)), R: term()}
		}
		rel := randomRels[c.Intn(len(randomRels))]
		ts := make([]Term, randomArity[rel])
		for i := range ts {
			ts[i] = term()
		}
		return Atom{Rel: rel, Terms: ts}
	}
	if depth == 0 {
		return leaf()
	}
	sub := func() Formula { return randomFormula(c, depth-1, scope) }
	quant := func() (string, Formula) {
		v := randomVarNames[c.Intn(len(randomVarNames))]
		return v, randomFormula(c, depth-1, append(append([]string(nil), scope...), v))
	}
	switch c.Intn(7) {
	case 0:
		return leaf()
	case 1:
		return And{Fs: []Formula{sub(), sub()}}
	case 2:
		return Or{Fs: []Formula{sub(), sub()}}
	case 3:
		return Not{F: sub()}
	case 4:
		v, f := quant()
		return Forall{Vars: []string{v}, F: f}
	default:
		v, f := quant()
		return Exists{Vars: []string{v}, F: f}
	}
}

// randomPlanQuery builds a query whose head is the body's free
// variables (at most two of them).
func randomPlanQuery(c chooser) *Query {
	scope := randomVarNames[:c.Intn(3)]
	q := &Query{Name: "rq", Body: randomFormula(c, 1+c.Intn(3), scope)}
	q.Head = q.FreeVars()
	return q
}

// checkPlan compares the plan against bruteEval on one database.
func checkPlan(t *testing.T, q *Query, d DB) {
	t.Helper()
	fast, err := Eval(q, d)
	if err != nil {
		t.Fatalf("Eval(%v): %v", q, err)
	}
	if slow := bruteEval(q, d); !fast.Equal(slow) || len(fast.Rows) != len(slow.Rows) {
		t.Fatalf("query %v\nplan:  %v\nbrute: %v", q, fast, slow)
	}
}

// TestPlanMatchesBruteForce differentially tests the planner on random
// CQ, UCQ, ∃FO+ and FO queries: constants, repeated and shadowed
// variables, comparisons across kinds, ¬ over ∃, ∀, and atoms over
// empty and missing relations.
func TestPlanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	classes := map[Lang]int{}
	domain := 0
	for trial := 0; trial < 3000; trial++ {
		q := randomPlanQuery(rng)
		classes[Classify(q)]++
		p, err := Compile(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.NeedsDomain() {
			domain++
		}
		// One plan, several databases.
		for k := 0; k < 3; k++ {
			d := randomDB(rng)
			if got, want := p.Eval(d), bruteEval(q, d); !got.Equal(want) {
				t.Fatalf("trial %d: query %v\nplan:  %v\nbrute: %v", trial, q, got, want)
			}
		}
	}
	for _, l := range []Lang{LangCQ, LangUCQ, LangEFOPlus, LangFO} {
		if classes[l] == 0 {
			t.Errorf("no %v query generated: %v", l, classes)
		}
	}
	t.Logf("classes %v, %d plans need the domain", classes, domain)
	if domain == 0 || domain == 3000 {
		t.Errorf("%d of 3000 plans need the domain; want both kinds", domain)
	}
}

// TestPlanBindsWithoutDomain pins the plans that must not iterate the
// active domain: atom-generated variables, equality-assigned ones,
// unions whose branches bind, and relativized ∀.
func TestPlanBindsWithoutDomain(t *testing.T) {
	r := func(a, b Term) Formula { return Atom{Rel: "R", Terms: []Term{a, b}} }
	for _, tc := range []struct {
		q      *Query
		domain bool
	}{
		{&Query{Head: []string{"x"}, Body: Exists{Vars: []string{"y"}, F: r(V("x"), V("y"))}}, false},
		{&Query{Head: []string{"x", "y"}, Body: And{Fs: []Formula{r(V("x"), C(relation.I(1))), Cmp{L: V("y"), Op: CmpEq, R: V("x")}}}}, false},
		{&Query{Head: []string{"x"}, Body: Or{Fs: []Formula{
			Exists{Vars: []string{"y"}, F: r(V("x"), V("y"))},
			Exists{Vars: []string{"y"}, F: r(V("y"), V("x"))},
		}}}, false},
		{&Query{Head: nil, Body: Forall{Vars: []string{"x"}, F: Or{Fs: []Formula{
			Not{F: Exists{Vars: []string{"y"}, F: r(V("x"), V("y"))}},
			Cmp{L: V("x"), Op: CmpGt, R: C(relation.I(0))},
		}}}}, false},
		{&Query{Head: []string{"x"}, Body: Not{F: Exists{Vars: []string{"y"}, F: r(V("x"), V("y"))}}}, true},
		{&Query{Head: nil, Body: Forall{Vars: []string{"x"}, F: Exists{Vars: []string{"e"}, F: Or{Fs: []Formula{
			r(V("e"), V("x")), r(V("x"), V("e")),
		}}}}}, true},
	} {
		p, err := Compile(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if p.NeedsDomain() != tc.domain {
			t.Errorf("%v: NeedsDomain = %v, want %v", tc.q, p.NeedsDomain(), tc.domain)
		}
	}
}

// TestResultSetOps pins the keyed set operations.
func TestResultSetOps(t *testing.T) {
	row := func(vs ...int64) relation.Tuple {
		out := make(relation.Tuple, len(vs))
		for i, v := range vs {
			out[i] = relation.I(v)
		}
		return out
	}
	a := &Result{Cols: []string{"x"}, Rows: []relation.Tuple{row(3), row(1), row(2)}}
	b := &Result{Cols: []string{"x"}, Rows: []relation.Tuple{row(2), row(4), row(3)}}
	got := a.Intersect(b)
	if len(got.Rows) != 2 || !got.Rows[0].Equal(row(3)) || !got.Rows[1].Equal(row(2)) {
		t.Errorf("Intersect = %v, want rows (3) (2) in a's order", got)
	}
	if a.Equal(b) || !a.Equal(&Result{Rows: []relation.Tuple{row(2), row(3), row(1)}}) {
		t.Error("Equal is not set equality")
	}
	if !a.Contains(row(1)) || a.Contains(row(4)) {
		t.Error("Contains")
	}
	a.Sort()
	if !a.Rows[0].Equal(row(1)) || !a.Rows[2].Equal(row(3)) {
		t.Errorf("Sort = %v", a)
	}
}

// FuzzEvalPlan checks the planner against bruteEval on queries and
// databases decoded from the fuzzer's bytes.
func FuzzEvalPlan(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{2, 4, 1, 3, 0, 2, 1, 3, 2, 0, 4, 1},
		{1, 3, 2, 2, 1, 0, 3, 1, 2, 3, 0, 1, 2, 5, 4, 1, 0, 2},
		{0, 4, 3, 3, 2, 1, 0, 4, 4, 2, 6, 1, 1, 0, 2, 5, 3, 0},
		{2, 1, 1, 1, 4, 2, 3, 3, 1, 2, 0, 2, 2, 3, 4, 5, 6, 1, 0, 2, 2},
		{1, 2, 0, 0, 3, 3, 3, 1, 4, 0, 2, 1, 5, 2, 2, 1, 0, 1, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChooser{data: data}
		d := randomDB(c)
		checkPlan(t, randomPlanQuery(c), d)
	})
}
