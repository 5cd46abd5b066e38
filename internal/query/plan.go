package query

import (
	"encoding/binary"
	"sort"

	"currency/internal/relation"
)

// Plan is a query compiled for evaluation on many databases: Compile
// validates and analyses the query once, and Eval runs the result on
// each database with no further analysis.
//
// The body is flattened into conjunctive blocks. A block binds its own
// variables — the head variables for the top block — plus every
// variable of an ∃ met at conjunct position, each renamed to a fresh
// slot, so shadowed names need no special case and bindings live in a
// []relation.Value rather than a map. Negation is pushed inward first
// (¬¬φ = φ, ¬(φ∨ψ) = ¬φ∧¬ψ, ¬∀x φ = ∃x ¬φ, ∀x φ = ¬∃x ¬φ), so a
// universally quantified variable relativized by an atom is generated
// by that atom.
//
// Within a block the steps are ordered greedily, after the join
// ordering of Selinger et al. (SIGMOD 1979) without statistics. A
// conjunct whose variables are all bound is checked as soon as they
// are: comparisons, then fully bound atoms, then ¬, ∨ and nested
// quantifiers. Otherwise an equality with one bound side assigns the
// other; else the positive atom with the most bound columns (constants,
// bound slots, repeated variables) scans its relation; else a
// disjunction whose every branch binds its open variables runs as a
// union of sub-blocks; else one variable falls back to iterating the
// active domain, which marks the plan as needing the domain.
//
// In the top block, a head step sits right after the step that binds
// the last head variable: it drops head values already answered and
// runs the rest of the block as an existence check, so existential
// witnesses are never enumerated past the first.
//
// A Plan is immutable; concurrent Evals are safe.
type Plan struct {
	cols   []string
	head   []int // slots of the head variables, in head order
	top    []step
	slots  int
	unions int
	consts []relation.Value
	domain bool
}

// NeedsDomain reports whether the plan iterates the active domain for
// some variable that no positive atom or equality binds. Only then can
// its answers depend on relations the query does not mention.
func (p *Plan) NeedsDomain() bool { return p.domain }

type stepKind uint8

const (
	stepScan   stepKind = iota // bind the free columns of each matching tuple
	stepAssign                 // slot := src (an equality with one bound side)
	stepDomain                 // slot ranges over the active domain
	stepCheck                  // continue only where cond holds
	stepUnion                  // each alternative block binds the open slots, then continue
	stepHead                   // head bound: record the row if the rest has a solution
)

// operand is a compiled term: a constant (slot < 0) or a slot.
type operand struct {
	slot int
	val  relation.Value
}

// column is one position of a scanned atom: it either binds a slot or
// must equal an operand.
type column struct {
	bind bool
	operand
}

type step struct {
	kind  stepKind
	rel   string
	cols  []column
	probe bool // scan binds nothing: one matching tuple suffices
	slot  int
	src   operand
	cond  *cond
	alts  [][]step
	union int // index of the union's continuation in exec.conts
}

type condKind uint8

const (
	condCmp    condKind = iota
	condExists          // the block has a solution
	condNot
	condOr
)

type cond struct {
	kind  condKind
	op    CmpOp
	l, r  operand
	block []step
	subs  []*cond
}

// Compile validates q and compiles it into a Plan.
func Compile(q *Query) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	c := &compiler{}
	cs := make(map[relation.Value]bool)
	constantsOf(q.Body, cs)
	for v := range cs {
		c.consts = append(c.consts, v)
	}
	sc, head := c.bind(nil, q.Head)
	b := &block{vars: head}
	c.flatten(q.Body, sc, b)
	top := c.plan(b, nil, head)
	return &Plan{
		cols:   append([]string(nil), q.Head...),
		head:   head,
		top:    top,
		slots:  c.slots,
		unions: c.unions,
		consts: c.consts,
		domain: c.domain,
	}, nil
}

// Eval runs the plan on db; rows are sorted canonically.
func (p *Plan) Eval(db DB) *Result {
	e := &exec{
		db:    db,
		slots: make([]relation.Value, p.slots),
		conts: make([]cont, p.unions),
		head:  p.head,
		seen:  make(map[string]struct{}),
	}
	if p.domain {
		e.domain = activeDomain(db, p.consts)
	}
	e.run(p.top, 0, nil)
	res := &Result{Cols: append([]string(nil), p.cols...), Rows: e.rows}
	res.Sort()
	return res
}

// activeDomain collects every value of db and the query constants, once
// each. Iteration order does not affect any answer.
func activeDomain(db DB, consts []relation.Value) []relation.Value {
	seen := make(map[relation.Value]bool)
	var out []relation.Value
	add := func(v relation.Value) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, inst := range db {
		if inst == nil {
			continue
		}
		for _, t := range inst.Tuples {
			for _, v := range t {
				add(v)
			}
		}
	}
	for _, v := range consts {
		add(v)
	}
	return out
}

// constantsOf collects the constants mentioned by a formula.
func constantsOf(f Formula, out map[relation.Value]bool) {
	switch g := f.(type) {
	case Atom:
		for _, t := range g.Terms {
			if t.IsConst {
				out[t.Const] = true
			}
		}
	case Cmp:
		if g.L.IsConst {
			out[g.L.Const] = true
		}
		if g.R.IsConst {
			out[g.R.Const] = true
		}
	case And:
		for _, h := range g.Fs {
			constantsOf(h, out)
		}
	case Or:
		for _, h := range g.Fs {
			constantsOf(h, out)
		}
	case Not:
		constantsOf(g.F, out)
	case Exists:
		constantsOf(g.F, out)
	case Forall:
		constantsOf(g.F, out)
	}
}

// scope maps the variable names visible at a formula to their slots.
type scope map[string]int

// conjunct is one flattened conjunct of a block: an Atom, a Cmp, an Or,
// or a formula checked as a whole once its variables are bound.
type conjunct struct {
	f    Formula
	sc   scope
	free []int // slots of f's free variables
}

// block is a conjunction under construction: the slots it must bind and
// its conjuncts.
type block struct {
	vars []int
	cs   []conjunct
}

type compiler struct {
	slots  int
	unions int
	consts []relation.Value
	domain bool
}

// bind extends sc with a fresh slot per distinct name in vars.
func (c *compiler) bind(sc scope, vars []string) (scope, []int) {
	out := make(scope, len(sc)+len(vars))
	for k, v := range sc {
		out[k] = v
	}
	fresh := make([]int, 0, len(vars))
	for _, v := range vars {
		if s, ok := out[v]; ok && containsSlot(fresh, s) {
			continue
		}
		out[v] = c.slots
		fresh = append(fresh, c.slots)
		c.slots++
	}
	return out, fresh
}

func containsSlot(slots []int, s int) bool {
	for _, t := range slots {
		if t == s {
			return true
		}
	}
	return false
}

// flatten adds f's conjuncts to b, hoisting ∃ variables into b and
// pushing negation inward.
func (c *compiler) flatten(f Formula, sc scope, b *block) {
	switch g := f.(type) {
	case And:
		for _, h := range g.Fs {
			c.flatten(h, sc, b)
		}
		return
	case Exists:
		inner, fresh := c.bind(sc, g.Vars)
		b.vars = append(b.vars, fresh...)
		c.flatten(g.F, inner, b)
		return
	case Not:
		switch h := g.F.(type) {
		case Not:
			c.flatten(h.F, sc, b)
			return
		case Or:
			for _, a := range h.Fs {
				c.flatten(Not{F: a}, sc, b)
			}
			return
		case Forall:
			c.flatten(Exists{Vars: h.Vars, F: Not{F: h.F}}, sc, b)
			return
		}
	}
	b.cs = append(b.cs, conjunct{f: f, sc: sc, free: freeSlots(f, sc)})
}

func freeSlots(f Formula, sc scope) []int {
	names := make(map[string]bool)
	f.freeVars(names)
	out := make([]int, 0, len(names))
	for n := range names {
		out = append(out, sc[n])
	}
	return out
}

func operandOf(t Term, sc scope) operand {
	if t.IsConst {
		return operand{slot: -1, val: t.Const}
	}
	return operand{slot: sc[t.Var]}
}

// plan orders b's conjuncts into steps, given the slots bound on entry.
// head is non-nil only for the top block.
func (c *compiler) plan(b *block, entry map[int]bool, head []int) []step {
	bound := make(map[int]bool, len(entry)+len(b.vars))
	for s := range entry {
		bound[s] = true
	}
	done := make([]bool, len(b.cs))
	headDone := head == nil
	var steps []step
	ready := func(i int) bool {
		if done[i] {
			return false
		}
		for _, s := range b.cs[i].free {
			if !bound[s] {
				return false
			}
		}
		return true
	}
	for {
		// Every conjunct whose variables are bound becomes a filter,
		// cheapest kind first.
		for pass := 0; pass < 3; pass++ {
			for i, cj := range b.cs {
				if !ready(i) || checkCost(cj.f) != pass {
					continue
				}
				done[i] = true
				steps = append(steps, c.check(cj, bound))
			}
		}
		if !headDone && allBound(head, bound) {
			steps = append(steps, step{kind: stepHead})
			headDone = true
		}
		if s, ok := c.assign(b, done, bound); ok {
			steps = append(steps, s)
			continue
		}
		if i := bestAtom(b, done, bound); i >= 0 {
			done[i] = true
			steps = append(steps, scan(b.cs[i], bound))
			continue
		}
		if s, ok := c.union(b, done, bound); ok {
			steps = append(steps, s)
			continue
		}
		if v, ok := openVar(b, done, bound); ok {
			bound[v] = true
			c.domain = true
			steps = append(steps, step{kind: stepDomain, slot: v})
			continue
		}
		break
	}
	// A variable no conjunct mentions still ranges over the domain: the
	// block holds only if that is non-empty, which is certain once any
	// slot holds a value or the query has a constant.
	for _, v := range b.vars {
		if bound[v] {
			continue
		}
		if len(bound) == 0 && len(c.consts) == 0 {
			c.domain = true
			steps = append(steps, step{kind: stepDomain, slot: v})
		}
		bound[v] = true
	}
	if !headDone {
		steps = append(steps, step{kind: stepHead})
	}
	return steps
}

func allBound(slots []int, bound map[int]bool) bool {
	for _, s := range slots {
		if !bound[s] {
			return false
		}
	}
	return true
}

// checkCost ranks filters: comparisons, then atom probes, then the rest.
func checkCost(f Formula) int {
	switch f.(type) {
	case Cmp:
		return 0
	case Atom:
		return 1
	}
	return 2
}

// check compiles a conjunct whose variables are all bound into a filter.
func (c *compiler) check(cj conjunct, bound map[int]bool) step {
	if _, ok := cj.f.(Atom); ok {
		return scan(cj, bound)
	}
	return step{kind: stepCheck, cond: c.cond(cj.f, cj.sc)}
}

// cond compiles a formula whose free variables are bound into a test.
func (c *compiler) cond(f Formula, sc scope) *cond {
	switch g := f.(type) {
	case Cmp:
		return &cond{kind: condCmp, op: g.Op, l: operandOf(g.L, sc), r: operandOf(g.R, sc)}
	case Or:
		out := &cond{kind: condOr}
		for _, a := range g.Fs {
			out.subs = append(out.subs, c.cond(a, sc))
		}
		return out
	case Not:
		return &cond{kind: condNot, subs: []*cond{c.cond(g.F, sc)}}
	case Forall:
		return &cond{kind: condNot, subs: []*cond{c.cond(Exists{Vars: g.Vars, F: Not{F: g.F}}, sc)}}
	}
	// Atom, And, Exists: a sub-block that holds when it has a solution.
	b := &block{}
	c.flatten(f, sc, b)
	entry := make(map[int]bool)
	for _, s := range freeSlots(f, sc) {
		entry[s] = true
	}
	return &cond{kind: condExists, block: c.plan(b, entry, nil)}
}

// assign finds a pending equality with exactly one unbound side.
func (c *compiler) assign(b *block, done []bool, bound map[int]bool) (step, bool) {
	for i, cj := range b.cs {
		g, ok := cj.f.(Cmp)
		if done[i] || !ok || g.Op != CmpEq {
			continue
		}
		l, r := operandOf(g.L, cj.sc), operandOf(g.R, cj.sc)
		lOpen := l.slot >= 0 && !bound[l.slot]
		rOpen := r.slot >= 0 && !bound[r.slot]
		if lOpen == rOpen {
			continue
		}
		if rOpen {
			l, r = r, l
		}
		done[i] = true
		bound[l.slot] = true
		return step{kind: stepAssign, slot: l.slot, src: r}, true
	}
	return step{}, false
}

// bestAtom picks the pending atom with the most bound columns; ties go
// to the atom written first.
func bestAtom(b *block, done []bool, bound map[int]bool) int {
	best, bestScore := -1, -1
	for i, cj := range b.cs {
		a, ok := cj.f.(Atom)
		if done[i] || !ok {
			continue
		}
		score := 0
		local := make(map[int]bool)
		for _, t := range a.Terms {
			switch {
			case t.IsConst:
				score++
			case bound[cj.sc[t.Var]] || local[cj.sc[t.Var]]:
				score++
			default:
				local[cj.sc[t.Var]] = true
			}
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// scan compiles an atom against the bound slots and binds the rest.
func scan(cj conjunct, bound map[int]bool) step {
	a := cj.f.(Atom)
	s := step{kind: stepScan, rel: a.Rel, cols: make([]column, len(a.Terms)), probe: true}
	for i, t := range a.Terms {
		op := operandOf(t, cj.sc)
		if op.slot >= 0 && !bound[op.slot] {
			bound[op.slot] = true
			s.cols[i] = column{bind: true, operand: op}
			s.probe = false
			continue
		}
		s.cols[i] = column{operand: op}
	}
	return s
}

// union compiles a pending disjunction whose every branch binds all of
// its unbound variables into a union of sub-blocks.
func (c *compiler) union(b *block, done []bool, bound map[int]bool) (step, bool) {
	for i, cj := range b.cs {
		g, ok := cj.f.(Or)
		if done[i] || !ok {
			continue
		}
		var open []int
		openNames := make(map[string]bool)
		names := make(map[string]bool)
		g.freeVars(names)
		for n := range names {
			if s := cj.sc[n]; !bound[s] {
				open = append(open, s)
				openNames[n] = true
			}
		}
		if !allBind(g.Fs, openNames) {
			continue
		}
		sort.Ints(open)
		s := step{kind: stepUnion, union: c.unions}
		c.unions++
		for _, a := range g.Fs {
			ab := &block{vars: append([]int(nil), open...)}
			c.flatten(a, cj.sc, ab)
			s.alts = append(s.alts, c.plan(ab, bound, nil))
		}
		done[i] = true
		for _, v := range open {
			bound[v] = true
		}
		return s, true
	}
	return step{}, false
}

// allBind reports whether every alternative binds every open name.
func allBind(alts []Formula, open map[string]bool) bool {
	for _, a := range alts {
		got := binders(a)
		for n := range open {
			if !got[n] {
				return false
			}
		}
	}
	return true
}

// binders names the free variables of f that a block over f binds
// through a positive atom or an equality. It steers the union choice
// only; a wrong guess costs time, not correctness.
func binders(f Formula) map[string]bool {
	out := make(map[string]bool)
	switch g := f.(type) {
	case Atom:
		g.freeVars(out)
	case Cmp:
		if g.Op == CmpEq {
			g.freeVars(out)
		}
	case And:
		for _, h := range g.Fs {
			for n := range binders(h) {
				out[n] = true
			}
		}
	case Exists:
		out = binders(g.F)
		for _, v := range g.Vars {
			delete(out, v)
		}
	case Or:
		for i, h := range g.Fs {
			hb := binders(h)
			if i == 0 {
				out = hb
				continue
			}
			for n := range out {
				if !hb[n] {
					delete(out, n)
				}
			}
		}
	case Not:
		switch h := g.F.(type) {
		case Not:
			return binders(h.F)
		case Or:
			var conj []Formula
			for _, a := range h.Fs {
				conj = append(conj, Not{F: a})
			}
			return binders(And{Fs: conj})
		case Forall:
			return binders(Exists{Vars: h.Vars, F: Not{F: h.F}})
		}
	}
	return out
}

// openVar picks the first unbound variable of b that a pending conjunct
// mentions, for active-domain iteration.
func openVar(b *block, done []bool, bound map[int]bool) (int, bool) {
	for _, v := range b.vars {
		if bound[v] {
			continue
		}
		for i, cj := range b.cs {
			if !done[i] && containsSlot(cj.free, v) {
				return v, true
			}
		}
	}
	return 0, false
}

// exec is the per-database state of one plan run.
type exec struct {
	db     DB
	slots  []relation.Value
	domain []relation.Value
	conts  []cont
	head   []int
	key    []byte
	seen   map[string]struct{}
	rows   []relation.Tuple
}

// cont resumes an enclosing block after a union alternative completes.
type cont struct {
	steps []step
	i     int
	next  *cont
}

func (e *exec) value(o operand) relation.Value {
	if o.slot < 0 {
		return o.val
	}
	return e.slots[o.slot]
}

// run executes steps[i:] and then the continuation chain k. It returns
// false as soon as one complete assignment is reached, so a block has a
// solution iff run(block, 0, nil) returns false.
func (e *exec) run(steps []step, i int, k *cont) bool {
	for ; i < len(steps); i++ {
		s := &steps[i]
		switch s.kind {
		case stepAssign:
			e.slots[s.slot] = e.value(s.src)
		case stepCheck:
			if !e.holds(s.cond) {
				return true
			}
		case stepScan:
			inst := e.db[s.rel]
			if inst == nil {
				return true
			}
		tuples:
			for _, tu := range inst.Tuples {
				if len(tu) != len(s.cols) {
					continue
				}
				for ci := range s.cols {
					col := &s.cols[ci]
					if col.bind {
						e.slots[col.slot] = tu[ci]
					} else if tu[ci] != e.value(col.operand) {
						continue tuples
					}
				}
				if !e.run(steps, i+1, k) {
					return false
				}
				if s.probe {
					return true
				}
			}
			return true
		case stepDomain:
			for _, v := range e.domain {
				e.slots[s.slot] = v
				if !e.run(steps, i+1, k) {
					return false
				}
			}
			return true
		case stepUnion:
			c := &e.conts[s.union]
			*c = cont{steps: steps, i: i + 1, next: k}
			for _, alt := range s.alts {
				if !e.run(alt, 0, c) {
					return false
				}
			}
			return true
		case stepHead:
			e.key = e.key[:0]
			for _, h := range e.head {
				e.key = appendValue(e.key, e.slots[h])
			}
			if _, dup := e.seen[string(e.key)]; dup {
				return true
			}
			if e.run(steps, i+1, k) {
				return true
			}
			row := make(relation.Tuple, len(e.head))
			for j, h := range e.head {
				row[j] = e.slots[h]
			}
			e.seen[string(e.key)] = struct{}{}
			e.rows = append(e.rows, row)
			return true
		}
	}
	if k != nil {
		return e.run(k.steps, k.i, k.next)
	}
	return false
}

func (e *exec) holds(c *cond) bool {
	switch c.kind {
	case condCmp:
		return c.op.eval(e.value(c.l), e.value(c.r))
	case condExists:
		return !e.run(c.block, 0, nil)
	case condNot:
		return !e.holds(c.subs[0])
	}
	for _, s := range c.subs {
		if e.holds(s) {
			return true
		}
	}
	return false
}

// appendValue encodes v injectively for row de-duplication.
func appendValue(b []byte, v relation.Value) []byte {
	b = append(b, byte(v.Kind))
	b = binary.AppendVarint(b, v.Int)
	b = binary.AppendUvarint(b, uint64(len(v.Str)))
	return append(b, v.Str...)
}
