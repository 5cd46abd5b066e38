// Package core implements the decision problems of the paper:
//
//	CPS   — consistency of specifications           (Theorem 3.1)
//	COP   — certain ordering                        (Theorem 3.4)
//	DCIP  — deterministic current instance          (Theorem 3.4)
//	CCQA  — certain current query answering         (Theorem 3.5)
//	CPP   — currency preservation of copy functions (Theorem 5.1)
//	ECP   — existence of preserving extensions      (Proposition 5.2)
//	BCP   — bounded copying                         (Theorem 5.3)
//
// The procedures are exact implementations of the upper-bound algorithms in
// the proofs; their worst-case cost matches the problems' complexity (most
// are intractable in general — see internal/tractable for the polynomial
// special cases of Section 6).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"currency/internal/osolve"
	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/spec"
)

// engineState is one immutable (specification, grounded solver) pair,
// plus the reasoner-level consistency memo. Every decision method loads
// one state at entry and runs wholly against it, so a concurrent Update
// can never hand a request a torn mix of old and new engines.
type engineState struct {
	spec   *spec.Spec
	solver *osolve.Solver

	// The consistency memo: the engine already memoizes per-component
	// verdicts; this keeps even the O(#components) memo sweep off the
	// hot path, since CPS is asked by nearly every decision method.
	// A mutex + done flag rather than a sync.Once because budget-
	// interrupted verdicts (okBudget) must not latch: only a completed
	// CPS decision is memoized.
	consistentMu   sync.Mutex
	consistentDone atomic.Bool
	consistent     bool
}

func (st *engineState) ok() bool {
	if st.consistentDone.Load() {
		return st.consistent
	}
	st.consistentMu.Lock()
	defer st.consistentMu.Unlock()
	if !st.consistentDone.Load() {
		st.consistent = st.solver.Consistent()
		st.consistentDone.Store(true)
	}
	return st.consistent
}

// okBudget is ok under an effort budget. Bounded callers bypass the
// memo lock — a deadlined request must not queue behind an unbounded
// CPS holding it — and lean on the engine's own per-component memo
// layer, which is budget-aware; a completed verdict is memoized here
// opportunistically. The returned error matches osolve.ErrInterrupted
// when the budget tripped first.
func (st *engineState) okBudget(b osolve.Budget) (bool, error) {
	if st.consistentDone.Load() {
		return st.consistent, nil
	}
	if b.Zero() {
		return st.ok(), nil
	}
	ok, err := st.solver.ConsistentBudget(b)
	if err != nil {
		return false, err
	}
	st.consistentMu.Lock()
	if !st.consistentDone.Load() {
		st.consistent = ok
		st.consistentDone.Store(true)
	}
	st.consistentMu.Unlock()
	return ok, nil
}

// Reasoner bundles a specification with its solver and answers the
// reasoning problems of Sections 3–5.
//
// Concurrency: a Reasoner is safe for concurrent use by multiple
// goroutines, including concurrently with Update. Every decision method
// is a pure read against one atomic engine snapshot — the solver works
// on private scoped clones of its propagated base state per query (see
// osolve.Solver), and the extension-space procedures
// (CurrencyPreserving*, BoundedCopying*, MaximalExtension) clone the
// specification before applying extension atoms. Update swaps the whole
// snapshot via one atomic pointer store: readers in flight finish
// against the engine they loaded — a consistent old view — and later
// requests see the patched one; no request ever observes a torn engine.
// The one mutating entry point besides Update is the package-level
// ApplyAtom, which callers must not invoke on a specification shared
// with live readers — clone first (ApplyExtension does).
//
// The solver is the decomposed engine of internal/osolve: it partitions
// the specification into independent components and memoizes their base
// verdicts, so on a long-lived Reasoner (the currencyd cache) repeated
// ordering queries (CertainOrder, Deterministic) search only the
// component each queried pair lives in — and Update patches the engine
// incrementally, keeping the memos of every component the delta leaves
// untouched.
type Reasoner struct {
	st atomic.Pointer[engineState]
	// mu serializes Update/Patched so concurrent patches cannot both
	// derive from the same predecessor and silently drop one delta.
	mu sync.Mutex
}

// NewReasoner validates the specification and grounds its constraints.
func NewReasoner(s *spec.Spec) (*Reasoner, error) {
	sv, err := osolve.New(s)
	if err != nil {
		return nil, err
	}
	r := &Reasoner{}
	r.st.Store(&engineState{spec: s, solver: sv})
	return r, nil
}

// snap loads the current engine snapshot.
func (r *Reasoner) snap() *engineState { return r.st.Load() }

// Spec returns the current specification. After an Update it returns the
// patched one; specifications handed out are immutable.
func (r *Reasoner) Spec() *spec.Spec { return r.snap().spec }

// Engine returns the current grounded solver, for diagnostics,
// benchmarks and worker configuration.
func (r *Reasoner) Engine() *osolve.Solver { return r.snap().solver }

// Update applies an incremental delta to the reasoner in place: the
// engine is patched (osolve.ApplyDelta — only components the delta
// touches lose their memos), re-warmed, and swapped in atomically.
// Readers in flight keep the old engine; the receiver's next queries see
// the new one. Concurrent Updates are serialized.
func (r *Reasoner) Update(d *spec.Delta) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := r.snap().patched(d)
	if err != nil {
		return err
	}
	r.st.Store(st)
	return nil
}

// Patched returns a new Reasoner with the delta applied, leaving the
// receiver untouched — the form the currencyd cache uses, where the old
// (id, version) entry must keep answering for requests that resolved it
// before the patch.
func (r *Reasoner) Patched(d *spec.Delta) (*Reasoner, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := r.snap().patched(d)
	if err != nil {
		return nil, err
	}
	out := &Reasoner{}
	out.st.Store(st)
	return out, nil
}

// patched derives the successor state: patch the engine and warm it (the
// warm-up searches only the components the delta rebuilt; reused ones
// answer from their transferred memos).
func (st *engineState) patched(d *spec.Delta) (*engineState, error) {
	sv, err := st.solver.ApplyDelta(d)
	if err != nil {
		return nil, err
	}
	ns := &engineState{spec: sv.Spec, solver: sv}
	ns.ok()
	return ns, nil
}

// Consistent decides CPS: is Mod(S) non-empty? The verdict is computed
// once per engine snapshot and memoized (safe under concurrent use).
func (r *Reasoner) Consistent() bool { return r.snap().ok() }

// OrderRequirement is one pair of a currency order Ot: tuple I of relation
// Rel must precede tuple J in attribute Attr.
type OrderRequirement struct {
	Rel  string
	Attr string
	I, J int
}

// CertainOrder decides COP: does every consistent completion contain all
// the required pairs? Vacuously true when Mod(S) is empty.
func (r *Reasoner) CertainOrder(reqs []OrderRequirement) (bool, error) {
	st := r.snap()
	for _, req := range reqs {
		ok, err := st.solver.CertainPair(req.Rel, req.Attr, req.I, req.J)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// CertainOrderInstance decides COP for a currency order given as a
// temporal instance Ot over the same tuples as relation rel in S.
func (r *Reasoner) CertainOrderInstance(ot *relation.TemporalInstance) (bool, error) {
	var reqs []OrderRequirement
	for _, ai := range ot.Schema.NonEIDIndexes() {
		ps := ot.Orders[ai]
		if ps == nil {
			continue
		}
		for _, p := range ps.Pairs() {
			reqs = append(reqs, OrderRequirement{
				Rel:  ot.Schema.Name,
				Attr: ot.Schema.Attrs[ai],
				I:    p.A,
				J:    p.B,
			})
		}
	}
	return r.CertainOrder(reqs)
}

// Deterministic decides DCIP for one relation: does LST of the relation
// agree across all consistent completions? Vacuously true when Mod(S) is
// empty.
func (r *Reasoner) Deterministic(rel string) (bool, error) {
	st := r.snap()
	if _, ok := st.spec.Relation(rel); !ok {
		return false, fmt.Errorf("core: unknown relation %s", rel)
	}
	return st.solver.DeterministicCurrent(rel), nil
}

// DeterministicAll decides DCIP for every relation of the specification.
func (r *Reasoner) DeterministicAll() bool {
	st := r.snap()
	for _, rel := range st.spec.Relations {
		if !st.solver.DeterministicCurrent(rel.Schema.Name) {
			return false
		}
	}
	return true
}

// CurrentDBs enumerates the distinct possible current databases
// {LST(Dc) : Dc ∈ Mod(S)}. limit > 0 caps the enumeration; the bool
// reports exhaustiveness.
func (r *Reasoner) CurrentDBs(limit int) ([]osolve.CurrentDB, bool) {
	return r.snap().solver.EnumerateCurrentDBs(limit)
}

// CertainAnswers computes the certain current answers to q w.r.t. S: the
// intersection of Q(LST(Dc)) over all consistent completions. The second
// return value reports whether Mod(S) is empty, in which case every tuple
// is vacuously a certain answer and the returned result is nil.
//
// The query is compiled once and run on each current database as the
// enumeration streams it; the walk stops at the first empty
// intersection, which no later database can refill. Only the relations
// the query mentions are enumerated unless its plan ranges over the
// active domain, which spans every relation (query.Plan.NeedsDomain).
func (r *Reasoner) CertainAnswers(q *query.Query) (*query.Result, bool, error) {
	return r.snap().certainAnswers(q)
}

func (st *engineState) certainAnswers(q *query.Query) (*query.Result, bool, error) {
	return st.certainAnswersBudget(q, osolve.Budget{})
}

// certainAnswersBudget is certainAnswers under an effort budget. An
// intersection that empties before the budget trips is exact; a budget
// that trips first surfaces the interruption error (matching
// osolve.ErrInterrupted) instead of a truncated-and-wrong intersection.
func (st *engineState) certainAnswersBudget(q *query.Query, b osolve.Budget) (*query.Result, bool, error) {
	p, err := query.Compile(q)
	if err != nil {
		return nil, false, err
	}
	var acc *query.Result
	_, err = st.solver.WalkCurrentDBs(b, dbRelations(q, p), func(db osolve.CurrentDB) bool {
		res := p.Eval(query.DB(db))
		if acc == nil {
			acc = res
		} else {
			acc = acc.Intersect(res)
		}
		return len(acc.Rows) > 0
	})
	switch {
	case acc != nil && len(acc.Rows) == 0:
		return acc, false, nil
	case err != nil:
		return nil, false, err
	case acc == nil:
		return nil, true, nil
	}
	return acc, false, nil
}

// dbRelations names the relations a current-database walk for plan p of
// q must keep: the ones q mentions, or all of them (nil) when p ranges
// over the active domain.
func dbRelations(q *query.Query, p *query.Plan) []string {
	if p.NeedsDomain() {
		return nil
	}
	return q.Relations()
}

// IsCertainAnswer decides CCQA: is t in Q(LST(Dc)) for every consistent
// completion Dc? Vacuously true when Mod(S) is empty.
func (r *Reasoner) IsCertainAnswer(q *query.Query, t relation.Tuple) (bool, error) {
	res, modEmpty, err := r.CertainAnswers(q)
	if err != nil {
		return false, err
	}
	if modEmpty {
		return true, nil
	}
	return res.Contains(t), nil
}

// PossibleAnswers computes the union of Q(LST(Dc)) over all consistent
// completions — the "possible current answers", a useful companion to
// certain answers for diagnostics. It streams the current databases like
// CertainAnswers, accumulating the union.
func (r *Reasoner) PossibleAnswers(q *query.Query) (*query.Result, error) {
	p, err := query.Compile(q)
	if err != nil {
		return nil, err
	}
	acc := &query.Result{Cols: append([]string(nil), q.Head...)}
	seen := make(map[string]bool)
	_, err = r.snap().solver.WalkCurrentDBs(osolve.Budget{}, dbRelations(q, p), func(db osolve.CurrentDB) bool {
		for _, row := range p.Eval(query.DB(db)).Rows {
			if k := row.Key(); !seen[k] {
				seen[k] = true
				acc.Rows = append(acc.Rows, row)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	acc.Sort()
	return acc, nil
}
