// Package osolve implements the exact solver underlying every reasoning
// task of the paper, structured as a four-layer engine:
//
//   - grounding (ground.go): blocks — one per (relation, attribute,
//     entity) currency order with at least two tuples — interned into a
//     dense literal-ID space, and ground Horn rules from denial
//     constraints and copy-function ≺-compatibility stored in CSR form,
//     plus the CSR per-literal rule watch index;
//   - decomposition (components.go): blocks are partitioned into
//     connected components of the cross-block rule graph; components
//     share no rules and are independent sub-problems, and the block
//     table is reordered so each component occupies one contiguous
//     literal-ID span (scoped clones are a single memcpy per component,
//     component memos one flat slice);
//   - propagation (propagate.go): one flat orientation arena per state
//     with trail-based backtracking; each set pair triggers transitive
//     closure inside its block and exactly the rules watching that
//     literal, all via flat-array indexing on literal IDs;
//   - search (search.go): DPLL per component with memoized base verdicts
//     and a persistent bounded semaphore; queries with assumptions search
//     only the components the assumptions touch, on pooled states —
//     allocation-free once the solver is warm.
//
// Consistent completions of a specification are total orders per block
// that extend the given partial currency orders and satisfy (a) the
// ground Horn rules obtained from denial constraints and (b) the
// ≺-compatibility rules of copy functions. The per-component searches are
// DPLL-style procedures matching the NP/Σp2 upper-bound algorithms of
// Theorem 3.1; the decomposition exploits the per-entity independence
// that Section 6's tractable cases rely on.
package osolve

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"currency/internal/relation"
	"currency/internal/spec"
)

// Solver answers satisfiability questions about a specification's
// consistent completions. Build one with New; the solver is read-only with
// respect to the specification and safe for concurrent reuse: after New,
// the blocks, rules, components and propagated base state are immutable;
// every query (SatWith, SolveWith, EnumerateCurrentDBs, ...) works on a
// private pooled state initialized from the base arena; and the
// per-component verdict memos are synchronized. Callers must not mutate
// the specification while queries run.
type Solver struct {
	Spec    *spec.Spec
	blocks  []*Block
	blockOf map[BlockKey]int
	relOf   map[string]*relation.TemporalInstance

	// Literal interning (see buildBlocks): block bi owns the dense ID
	// range [litOff[bi], litOff[bi+1]) with ID litOff[bi]+i*n+j meaning
	// "member i precedes member j"; blockN caches n per block; litBlk and
	// litInv decode an ID to its block and its inverse (j, i) literal.
	litOff  []int32
	blockN  []int32
	litBlk  []int32
	litInv  []int32
	numLits int

	// Ground rules in CSR form: rule ri's body literal IDs are
	// ruleBody[ruleStart[ri]:ruleStart[ri+1]] (one flat arena, no
	// per-rule slice headers); its head is ruleHead[ri], headNone for
	// body → ⊥. Body-less rules live in unitHeads/unitConflict and are
	// applied once during base propagation.
	ruleBody     []int32
	ruleStart    []int32
	ruleHead     []int32
	unitHeads    []int32
	unitConflict bool
	nRules       int // total ground rules, including unit rules

	// segs records which CSR and unit ranges each grounding source
	// produced, in spec order (constraints then copies) — the bookkeeping
	// the incremental re-grounding of ApplyDelta works from.
	segs []ruleSeg

	// Watch index in CSR form: the rules watching literal id are
	// watchRules[watchStart[id]:watchStart[id+1]].
	watchStart []int32
	watchRules []int32

	// comps/compOf are the decomposition: connected components of the
	// cross-block rule graph, and each block's component.
	comps  []*component
	compOf []int

	// workers bounds component-level parallelism for cold full verdicts;
	// sem is the persistent semaphore enforcing it across concurrent
	// queries (no per-call goroutine pools).
	workers int
	sem     chan struct{}

	// statePool recycles search states (arena + trail + queue) so warm
	// scoped queries allocate nothing. It is a pointer so ApplyDelta can
	// hand the warm pool to the patched solver: states are
	// generation-agnostic (getState sizes the arena, and every query
	// initializes the spans it reads).
	statePool *sync.Pool

	base         *state
	baseConflict bool
	// allBaseSat flips once every component is memoized satisfiable; from
	// then on baseSatExcept is a single atomic load.
	allBaseSat atomic.Bool

	// cdcl enables conflict-driven clause learning: a component search
	// that exceeds cdclBudget conflicts under the chronological DPLL is
	// restarted as an iterative CDCL loop (cdcl.go) with first-UIP
	// learning, non-chronological backjumping, EVSIDS decisions and Luby
	// restarts. The two-phase split keeps the warm scoped-query path
	// allocation-free: warm workloads resolve in a handful of conflicts
	// and never escalate, while gadget-shaped components blow the budget
	// immediately and get the learning machinery (which may allocate — it
	// is the escape from an exponential tail, not a hot path).
	cdcl       bool
	cdclBudget uint64

	// patch, when non-nil, records how this solver was derived from its
	// predecessor by ApplyDelta (see delta.go).
	patch *PatchStats

	// stats is the counter sink search states flush into on release
	// (see stats.go). Private per solver by default; SetStatsSink
	// points it at a shared block, and ApplyDelta hands it to the
	// patched solver like the state pool.
	stats *EngineStats
}

// New builds a solver for the specification. It validates the
// specification, grounds all denial constraints and compatibility rules
// into the interned CSR representation, decomposes the blocks into
// components (reordering the block table so each component is one
// contiguous arena span), and performs initial propagation of the given
// partial orders.
func New(s *spec.Spec) (*Solver, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sv := &Solver{
		Spec:    s,
		blockOf: make(map[BlockKey]int),
		relOf:   make(map[string]*relation.TemporalInstance),
		stats:   &EngineStats{},

		cdcl:       true,
		cdclBudget: defaultCDCLBudget,
	}
	sv.SetWorkers(runtime.GOMAXPROCS(0))
	groups, err := sv.buildBlocks()
	if err != nil {
		return nil, err
	}
	if err := sv.groundRules(groups); err != nil {
		return nil, err
	}
	sv.buildComponents()
	// Reorder before indexing: the watch index is laid out over the
	// final (component-contiguous) literal IDs.
	sv.reorderByComponent()
	sv.indexRules()
	sv.statePool = newStatePool()
	sv.initBase()
	return sv, nil
}

// SetWorkers bounds the semaphore used for cold whole-specification
// verdicts (Consistent and the first SolveWith). n < 1 is ignored. Call
// before the solver is shared between goroutines; the bound applies to
// the engine as a whole — concurrent queries share the one semaphore —
// so callers fanning queries out over their own pool (the currencyd
// batch path) get at most n component searches in flight regardless of
// their fan-out.
func (sv *Solver) SetWorkers(n int) {
	if n >= 1 {
		sv.workers = n
		sv.sem = make(chan struct{}, n)
	}
}

// SetCDCL toggles conflict-driven clause learning (on by default).
// Disabled, every component search runs the chronological DPLL to
// completion — the pre-CDCL engine, kept as the benchmark baseline and
// as a differential-testing foil. Call before the solver is shared
// between goroutines.
func (sv *Solver) SetCDCL(enable bool) { sv.cdcl = enable }

// LitFor is the exported variant of litFor using an attribute name.
func (sv *Solver) LitFor(rel, attr string, i, j int) (Lit, bool, error) {
	r := sv.relOf[rel]
	if r == nil {
		return Lit{}, false, fmt.Errorf("osolve: unknown relation %s", rel)
	}
	ai, ok := r.Schema.AttrIndex(attr)
	if !ok {
		return Lit{}, false, fmt.Errorf("osolve: unknown attribute %s.%s", rel, attr)
	}
	return sv.litFor(rel, ai, i, j)
}

// CertainPair reports whether tuple i ≺ tuple j on attr holds in every
// consistent completion. Following COP's semantics, it is vacuously true
// when the specification is inconsistent; for same-entity pairs it holds
// iff no completion orders j before i (orders are total per entity).
// Cross-entity pairs are never certain unless Mod(S) is empty. The
// underlying SatWith searches only the component containing the pair.
func (sv *Solver) CertainPair(rel, attr string, i, j int) (bool, error) {
	return sv.CertainPairStats(rel, attr, i, j, nil)
}

// Blocks exposes the solver's block table (read-only).
func (sv *Solver) Blocks() []*Block { return sv.blocks }

// RuleCount reports how many ground rules the solver manages (including
// body-less unit rules), for diagnostics and benchmarks.
func (sv *Solver) RuleCount() int { return sv.nRules }
