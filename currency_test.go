package currency

import (
	"testing"

	"currency/internal/paperdb"
)

// TestPublicAPIQuickstart drives the whole public surface on the paper's
// running example.
func TestPublicAPIQuickstart(t *testing.T) {
	s := paperdb.SpecS0()
	r, err := NewReasoner(s)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Consistent() {
		t.Fatal("S0 must be consistent")
	}
	if got := Explain(s); got == "" {
		t.Error("Explain returned nothing")
	}
	q1 := paperdb.Q1()
	if got := Classify(q1); got != "SP" {
		t.Errorf("Classify(Q1) = %s", got)
	}
	res, modEmpty, err := r.CertainAnswers(q1)
	if err != nil || modEmpty {
		t.Fatalf("CertainAnswers: %v modEmpty=%v", err, modEmpty)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != Int(80) {
		t.Errorf("Q1 = %v", res)
	}
	ok, err := r.IsCertainAnswer(q1, Tuple{Int(80)})
	if err != nil || !ok {
		t.Errorf("IsCertainAnswer(80) = %v, %v", ok, err)
	}
	poss, err := r.PossibleAnswers(q1)
	if err != nil {
		t.Fatal(err)
	}
	if !poss.Contains(Tuple{Int(80)}) {
		t.Errorf("PossibleAnswers misses the certain answer: %v", poss)
	}
	dbs, complete := r.CurrentDatabases(0)
	if !complete || len(dbs) == 0 {
		t.Fatal("CurrentDatabases failed")
	}
	det, err := r.Deterministic("Emp")
	if err != nil || !det {
		t.Errorf("Deterministic(Emp) = %v, %v", det, err)
	}
}

// TestPublicAPIFastPaths exercises the Section 6 entry points.
func TestPublicAPIFastPaths(t *testing.T) {
	src := `
relation R(eid, A)
instance R {
  a: ("e1", 1)
  b: ("e1", 2)
  order A: a < b
}
query Q(x) := exists e. R(e, x)
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := FastConsistent(f.Spec)
	if err != nil || !ok {
		t.Fatalf("FastConsistent = %v, %v", ok, err)
	}
	certain, err := FastCertainOrder(f.Spec, []OrderRequirement{{Rel: "R", Attr: "A", I: 0, J: 1}})
	if err != nil || !certain {
		t.Fatalf("FastCertainOrder = %v, %v", certain, err)
	}
	det, err := FastDeterministic(f.Spec, "R")
	if err != nil || !det {
		t.Fatalf("FastDeterministic = %v, %v", det, err)
	}
	q, _ := f.Query("Q")
	res, consistent, err := FastCertainAnswersSP(f.Spec, q)
	if err != nil || !consistent {
		t.Fatalf("FastCertainAnswersSP: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != Int(2) {
		t.Errorf("fast answers = %v", res)
	}
	auto, modEmpty, err := AutoCertainAnswers(f.Spec, q)
	if err != nil || modEmpty {
		t.Fatalf("AutoCertainAnswers: %v", err)
	}
	if !auto.Equal(res) {
		t.Errorf("Auto (%v) disagrees with Fast (%v)", auto, res)
	}
	okc, err := AutoConsistent(f.Spec)
	if err != nil || !okc {
		t.Fatalf("AutoConsistent = %v, %v", okc, err)
	}
	preserving, err := FastCurrencyPreservingSP(f.Spec, q)
	if err != nil {
		t.Fatal(err)
	}
	// No copy functions: nothing can be extended, so trivially preserving.
	if !preserving {
		t.Error("spec without copy functions must be currency preserving")
	}
	// BCP counts extensions importing at most k tuples, the empty one
	// included: copy functions that are already currency preserving
	// satisfy it for every k, with nothing to import (Theorem 5.3), and
	// the exact engine must agree.
	okb, _, err := FastBoundedCopyingSP(f.Spec, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !okb {
		t.Error("CPP holds, so BCP must hold with the empty extension")
	}
	r, err := NewReasoner(f.Spec)
	if err != nil {
		t.Fatal(err)
	}
	exact, _, err := r.BoundedCopying(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if okb != exact {
		t.Errorf("FastBoundedCopyingSP = %v, exact BoundedCopying = %v", okb, exact)
	}
}

// TestFormatParseRoundTrip round-trips the paper spec through the public
// Format/Parse entry points.
func TestFormatParseRoundTrip(t *testing.T) {
	s := paperdb.SpecS0()
	text := Format(s, paperdb.Q2())
	f, err := Parse(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	r, err := NewReasoner(f.Spec)
	if err != nil {
		t.Fatal(err)
	}
	q, ok := f.Query("Q2")
	if !ok {
		t.Fatal("Q2 lost in round trip")
	}
	res, _, err := r.CertainAnswers(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != String("Dupont") {
		t.Errorf("round-trip Q2 = %v", res)
	}
}

// TestEvalDirect checks query evaluation on plain instances.
func TestEvalDirect(t *testing.T) {
	sc, err := NewSchema("R", "eid", "A")
	if err != nil {
		t.Fatal(err)
	}
	dt := NewTemporalInstance(sc)
	if _, err := dt.Add(Tuple{String("e"), Int(7)}); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(`
relation R(eid, A)
query Q(x) := exists e. R(e, x)
`)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := f.Query("Q")
	res, err := Eval(q, map[string]*Instance{"R": dt.Instance})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != Int(7) {
		t.Errorf("Eval = %v", res)
	}
}
