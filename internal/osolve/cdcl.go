package osolve

// CDCL escalation — the search layer's answer to gadget-shaped
// components (see searchCompPersist for the two-phase policy). The
// chronological DPLL in search.go is optimal for the warm path: almost
// every scoped query resolves in a handful of conflicts on pooled,
// allocation-free states. But the paper's decision problems are NP-hard
// (Theorems 3.1–3.5), and the hardness gadgets in internal/reductions
// produce components where chronological backtracking re-explores the
// same dead subtrees exponentially often. A search that blows its
// conflict budget is therefore restarted here as an iterative CDCL loop:
//
//   - every propagated literal records its REASON — a tagged int64
//     naming the CSR rule, the transitive-closure trigger literal, or
//     the learned clause that implied it — so the implication graph is
//     free (no stored antecedent lists);
//   - conflicts are analyzed to a first-UIP learned clause over the
//     component's literals, and the search backjumps non-chronologically
//     to the clause's assertion level;
//   - decisions use an EVSIDS-style activity heuristic with phase
//     saving, under Luby-sequence restarts. The unassigned constrained
//     pairs sit in a binary order heap, as in MiniSat (Eén & Sörensson
//     2003), keyed by activity descending and then position in
//     component.constrained ascending: its top is exactly the pair a
//     linear scan picks (the first maximum in constrained order), so the
//     heap changes what a decision costs, never which pair it sets;
//   - clauses learned by the BASE search (empty trail, so every clause
//     is a consequence of the component's rules and base orders alone)
//     are published to a per-component persistent store, bounded by a
//     shortest/most-used deletion policy, and consulted by later
//     escalated searches. ApplyDelta transfers the store alongside the
//     base memo when a component's layout is unchanged and drops it for
//     touched components (delta.go).
//
// Everything here is component-scoped: clauses only mention literals of
// one component span, so cross-component independence and scoped clones
// are untouched. The scratch (cdclRun) is allocated per escalated call —
// deliberately: escalation is the escape hatch from an exponential tail,
// not the warm path, and keeping the scratch off the pooled states is
// what keeps warm queries allocation-free.

import "sort"

const (
	// defaultCDCLBudget is the chronological-phase conflict budget. Warm
	// workloads sit far below it (conflicts_per_query < 1 on the bench
	// specs); gadget components blow it in microseconds.
	defaultCDCLBudget = 32
	// maxLearnedPerComp bounds each component's persistent clause store.
	maxLearnedPerComp = 512
	// lubyUnit scales the Luby restart sequence (conflicts per unit).
	lubyUnit = 64

	varActDecay   = 0.95
	varActRescale = 1e100
)

// learnedDB is a component's persistent learned-clause store: a CSR
// arena of span-relative literal IDs (clause k is
// lits[start[k]:start[k+1]], each literal meaning "pair is less"; a
// clause asserts that at least one of its literals holds in every
// completion). Span-relative storage makes the store layout-independent:
// ApplyDelta shares the pointer verbatim when the component keeps its
// block layout, wherever its span lands in the new arena. The struct is
// immutable once published.
type learnedDB struct {
	lits  []int32
	start []int32
}

func (db *learnedDB) count() int {
	if db == nil {
		return 0
	}
	return len(db.start) - 1
}

// Reason tags: an int64 per trail literal encodes what implied it —
// kind in the low two bits, payload above. tagNone marks decisions,
// restarts' re-assertions at level 0, and pre-entry literals.
const (
	tagNone       int64 = 0
	tagKindRule   int64 = 1 // payload: CSR rule index
	tagKindTrans  int64 = 2 // payload: the trigger literal of the closure step
	tagKindClause int64 = 3 // payload: clause index in the run's store
	tagKindMask   int64 = 3

	// conflNoImplied marks conflicts with no implied literal (a deny
	// rule or clause with every literal false).
	conflNoImplied int32 = -1
)

func ruleTag(ri int32) int64  { return int64(ri)<<2 | tagKindRule }
func transTag(t int32) int64  { return int64(t)<<2 | tagKindTrans }
func clauseTag(k int32) int64 { return int64(k)<<2 | tagKindClause }

// cdclRun is the scratch of one escalated search: implication-graph
// bookkeeping, heuristic state and the clause store, all span-relative
// to the component under search. Pre-entry trail literals keep the
// zero values (level 0, no reason), which is exactly their semantics.
type cdclRun struct {
	sv *Solver
	st *state
	c  *component
	lo int32

	reason []int64 // by span-relative literal: what implied it
	lvl    []int32 // by span-relative literal: decision level set at
	seen   []uint32
	stamp  uint32

	act    []float64 // by span-relative canonical pair: EVSIDS activity
	varInc float64
	phase  []byte // by span-relative canonical pair: saved polarity

	// Order heap over indices into c.constrained (see the file comment).
	// Entries may be assigned: pickBranch drops them when they reach the
	// top, and jumpTo re-inserts a pair when it becomes unassigned, so
	// every unassigned constrained pair is always in the heap.
	heap    []int32
	heapPos []int32 // by constrained index: position in heap, -1 if out
	cidx    []int32 // by span-relative canonical pair: constrained index, or -1

	// Clause store: the persistent snapshot (first pcount clauses) plus
	// clauses learned this run, in CSR form over ABSOLUTE literal IDs.
	// watch indexes clauses by the span-relative literal whose
	// assignment falsifies one of theirs: clause k with literal w is
	// triggered when litInv[w] is set less. uses counts unit
	// propagations per clause, feeding the deletion policy.
	lits   []int32
	start  []int32
	uses   []uint32
	watch  [][]int32
	pcount int

	marks []int // marks[L] = trail length entering level L; marks[0] = entry

	stack  []int32 // pending literals with their reasons, drained by
	rstack []int64 // propagateCDCL in lock-step

	conflTag     int64
	conflImplied int32

	lbuf []int32
	abuf []int32
}

func newCDCLRun(sv *Solver, st *state, c *component) *cdclRun {
	span := int(c.hi - c.lo)
	r := &cdclRun{
		sv: sv, st: st, c: c, lo: c.lo,
		reason: make([]int64, span),
		lvl:    make([]int32, span),
		seen:   make([]uint32, span),
		act:    make([]float64, span),
		phase:  make([]byte, span),
		watch:  make([][]int32, span),
		varInc: 1,
		marks:  []int{st.mark()},

		heap:    make([]int32, len(c.constrained)),
		heapPos: make([]int32, len(c.constrained)),
		cidx:    make([]int32, span),
	}
	for i := range r.cidx {
		r.cidx[i] = -1
	}
	// Every activity starts at zero, so index order is already a heap.
	for k, id := range c.constrained {
		r.heap[k], r.heapPos[k] = int32(k), int32(k)
		r.cidx[id-c.lo] = int32(k)
	}
	if db := c.learned.Load(); db != nil {
		r.lits = make([]int32, len(db.lits))
		for i, rel := range db.lits {
			r.lits[i] = rel + c.lo
		}
		r.start = append(make([]int32, 0, len(db.start)), db.start...)
		r.pcount = db.count()
		r.uses = make([]uint32, r.pcount)
		for k := int32(0); k < int32(r.pcount); k++ {
			r.watchClause(k)
		}
	} else {
		r.start = append(r.start, 0)
	}
	return r
}

func (r *cdclRun) watchClause(k int32) {
	for _, w := range r.lits[r.start[k]:r.start[k+1]] {
		t := r.sv.litInv[w] - r.lo
		r.watch[t] = append(r.watch[t], k)
	}
}

func (r *cdclRun) level() int { return len(r.marks) - 1 }

func (r *cdclRun) push(id int32, tag int64) {
	r.stack = append(r.stack, id)
	r.rstack = append(r.rstack, tag)
}

// searchCDCL is the escalated component search: same contract as
// searchComp (trail retained on success, restored to entry on failure),
// reached only via searchCompPersist after the chronological phase blew
// its conflict budget.
func (sv *Solver) searchCDCL(st *state, ci int, persist bool) bool {
	c := sv.comps[ci]
	r := newCDCLRun(sv, st, c)
	entry := r.marks[0]

	// Persistent clauses may already be unit or false under the entry
	// assignment (assumption-scoped searches propagate assumptions with
	// the clause-blind base propagator): scan them once.
	for k := int32(0); k < int32(r.pcount); k++ {
		unk, nUnk, sat := int32(-1), 0, false
		for _, w := range r.lits[r.start[k]:r.start[k+1]] {
			switch st.a[w] {
			case less:
				sat = true
			case unknown:
				nUnk++
				unk = w
			}
			if sat {
				break
			}
		}
		switch {
		case sat:
		case nUnk == 0:
			// Entry state falsifies a consequence of the component's
			// theory: unsatisfiable, no analysis possible at level 0.
			st.conflicts++
			sv.undoTo(st, entry)
			return false
		case nUnk == 1:
			r.uses[k]++
			r.push(unk, clauseTag(k))
		}
	}

	restarts, sinceRestart := 0, 0
	limit := lubyUnit * luby(0)
	for {
		if st.interrupted() {
			// Budget tripped (budget.go): restore the entry state and
			// fail without publishing — the verdict is indeterminate
			// and the caller reads st.stop.
			sv.undoTo(st, entry)
			return false
		}
		if !r.propagateCDCL() {
			if r.level() == 0 {
				sv.undoTo(st, entry)
				return false
			}
			bj, assertLit, k := r.analyze()
			st.learned++
			if bj < r.level()-1 {
				st.backjumps++
			}
			r.decay()
			sinceRestart++
			if sinceRestart >= limit && bj > 0 {
				// Restart: keep the clause, drop the assertion (it is
				// only implied below the backjump level) and start over.
				st.restarts++
				restarts++
				sinceRestart = 0
				limit = lubyUnit * luby(restarts)
				r.jumpTo(0)
				continue
			}
			r.jumpTo(bj)
			r.push(assertLit, clauseTag(k))
			continue
		}
		id := r.pickBranch()
		if id < 0 {
			// Every rule-constrained pair is oriented: all rules are
			// settled, and the remaining pairs always extend to a total
			// order (see component.constrained and fillComp).
			if !sv.fillComp(st, ci) {
				sv.undoTo(st, entry)
				return false
			}
			if persist {
				r.publish()
			}
			return true
		}
		st.decisions++
		r.marks = append(r.marks, st.mark())
		r.push(id, tagNone)
	}
}

// propagateCDCL is propagate (propagate.go) with the implication graph
// recorded: every set literal stores its reason tag and decision level,
// and the run's learned clauses fire alongside transitive closure and
// rule firing. On conflict it records (conflTag, conflImplied) for
// analyze and returns false with the pending stacks cleared (the trail
// is NOT unwound — analyze walks it).
func (r *cdclRun) propagateCDCL() bool {
	sv, st := r.sv, r.st
	curLvl := int32(r.level())
	fail := func(tag int64, implied int32) bool {
		st.conflicts++
		r.conflTag, r.conflImplied = tag, implied
		r.stack = r.stack[:0]
		r.rstack = r.rstack[:0]
		return false
	}
	for len(r.stack) > 0 {
		n := len(r.stack) - 1
		id, tag := r.stack[n], r.rstack[n]
		r.stack, r.rstack = r.stack[:n], r.rstack[:n]
		switch st.a[id] {
		case less:
			continue // first assignment won; its reason stands
		case greater:
			return fail(tag, id)
		}
		st.a[id] = less
		st.a[sv.litInv[id]] = greater
		st.trail = append(st.trail, id)
		rel := id - r.lo
		r.reason[rel] = tag
		r.lvl[rel] = curLvl
		st.propagations++

		// Transitive closure (the kernel propagate uses). A cycle's
		// endpoint comes back as the (never-assigned) diagonal ID, so
		// analyze can decode the closure step's antecedents.
		pushed := len(r.stack)
		var cycle int32
		if r.stack, cycle = sv.closeEdge(st, id, r.stack); cycle >= 0 {
			return fail(transTag(id), cycle)
		}
		for range r.stack[pushed:] {
			r.rstack = append(r.rstack, transTag(id))
		}

		// Rule firing via the watch index.
		for _, ri := range sv.watchRules[sv.watchStart[id]:sv.watchStart[id+1]] {
			sat := true
			for _, bl := range sv.ruleBody[sv.ruleStart[ri]:sv.ruleStart[ri+1]] {
				if bl != id && st.a[bl] != less {
					sat = false
					break
				}
			}
			if !sat {
				continue
			}
			h := sv.ruleHead[ri]
			if h == headNone {
				return fail(ruleTag(ri), conflNoImplied)
			}
			if st.a[h] != less {
				r.push(h, ruleTag(ri))
			}
		}

		// Learned-clause firing: id going less falsifies litInv[id], so
		// exactly the clauses watching id can have become unit or false.
		for _, k := range r.watch[rel] {
			unk, nUnk, sat := int32(-1), 0, false
			for _, w := range r.lits[r.start[k]:r.start[k+1]] {
				switch st.a[w] {
				case less:
					sat = true
				case unknown:
					nUnk++
					unk = w
				}
				if sat {
					break
				}
			}
			switch {
			case sat:
			case nUnk == 0:
				return fail(clauseTag(k), conflNoImplied)
			case nUnk == 1:
				r.uses[k]++
				r.push(unk, clauseTag(k))
			}
		}
	}
	return true
}

// reasonVars appends the trail literals (all currently less) that
// implied `implied` under the given reason tag — the antecedent side of
// one implication-graph edge bundle.
func (r *cdclRun) reasonVars(buf []int32, tag int64, implied int32) []int32 {
	sv := r.sv
	switch tag & tagKindMask {
	case tagKindRule:
		ri := int32(tag >> 2)
		buf = append(buf, sv.ruleBody[sv.ruleStart[ri]:sv.ruleStart[ri+1]]...)
	case tagKindTrans:
		// Trigger t = (ti ≺ tj) closed an edge p ≺ s (implied, possibly
		// the diagonal p == s for a cycle conflict): the antecedents are
		// p ≺ ti, t itself, and tj ≺ s, skipping the degenerate ends.
		t := int32(tag >> 2)
		bi := sv.litBlk[t]
		off, bn := sv.litOff[bi], sv.blockN[bi]
		trem, erem := t-off, implied-off
		ti, tj := trem/bn, trem%bn
		p, s := erem/bn, erem%bn
		if p != ti {
			buf = append(buf, off+p*bn+ti)
		}
		buf = append(buf, t)
		if s != tj {
			buf = append(buf, off+tj*bn+s)
		}
	case tagKindClause:
		k := int32(tag >> 2)
		for _, w := range r.lits[r.start[k]:r.start[k+1]] {
			if w == implied {
				continue
			}
			buf = append(buf, sv.litInv[w])
		}
	}
	return buf
}

// analyze derives the first-UIP learned clause from the recorded
// conflict, appends it to the run's store and returns the backjump
// level (the highest level among the clause's non-UIP literals; 0 when
// the clause is unit) together with the literal to assert and the new
// clause's index. Level-0 antecedents are omitted: they are
// consequences of the entry state, which every later state of this
// search (and, for persisted clauses, every state of the solver
// generation) extends.
func (r *cdclRun) analyze() (bjLevel int, assertLit int32, clauseIdx int32) {
	sv, st := r.sv, r.st
	r.stamp++
	stamp := r.stamp
	curLvl := int32(r.level())
	learned := r.lbuf[:0]
	counter := 0
	vars := r.reasonVars(r.abuf[:0], r.conflTag, r.conflImplied)
	if r.conflImplied >= 0 && st.a[r.conflImplied] == greater {
		// Clash conflict: the implied literal's inverse is on the trail
		// and belongs to the conflict side too.
		vars = append(vars, sv.litInv[r.conflImplied])
	}
	idx := len(st.trail) - 1
	var uip int32
	for {
		for _, v := range vars {
			rel := v - r.lo
			if r.seen[rel] == stamp {
				continue
			}
			lv := r.lvl[rel]
			if lv == 0 {
				continue
			}
			r.seen[rel] = stamp
			r.bump(v)
			if lv == curLvl {
				counter++
			} else {
				learned = append(learned, sv.litInv[v])
			}
		}
		// Consume the most recent marked current-level literal; when it
		// is the last one it is the first UIP.
		for r.seen[st.trail[idx]-r.lo] != stamp {
			idx--
		}
		v := st.trail[idx]
		idx--
		counter--
		if counter == 0 {
			uip = v
			break
		}
		vars = r.reasonVars(r.abuf[:0], r.reason[v-r.lo], v)
		r.abuf = vars
	}
	bj := int32(0)
	for _, w := range learned {
		if lv := r.lvl[sv.litInv[w]-r.lo]; lv > bj {
			bj = lv
		}
	}
	assertLit = sv.litInv[uip]
	k := int32(len(r.start) - 1)
	r.lits = append(r.lits, assertLit)
	r.lits = append(r.lits, learned...)
	r.start = append(r.start, int32(len(r.lits)))
	r.uses = append(r.uses, 1)
	r.watchClause(k)
	r.lbuf = learned[:0]
	return int(bj), assertLit, k
}

// jumpTo undoes the trail down to decision level b, saving the polarity
// of every undone canonical pair for phase saving and returning undone
// constrained pairs to the order heap.
func (r *cdclRun) jumpTo(b int) {
	if b >= r.level() {
		return
	}
	st, sv := r.st, r.sv
	target := r.marks[b+1]
	for k := len(st.trail) - 1; k >= target; k-- {
		id := st.trail[k]
		canon, pol := id, less
		if inv := sv.litInv[id]; inv < canon {
			canon, pol = inv, greater
		}
		r.phase[canon-r.lo] = pol
		if ck := r.cidx[canon-r.lo]; ck >= 0 && r.heapPos[ck] < 0 {
			r.heapInsert(ck)
		}
	}
	sv.undoTo(st, target)
	r.marks = r.marks[:b+1]
}

// pickBranch selects the unassigned constrained pair with the highest
// activity (the first in constrained order among equals) and returns it
// oriented by its saved phase, or -1 when every constrained pair is
// oriented. Assigned pairs that reach the heap's top are dropped on the
// way; the chosen pair stays until it is found assigned.
func (r *cdclRun) pickBranch() int32 {
	for len(r.heap) > 0 {
		id := r.c.constrained[r.heap[0]]
		if r.st.a[id] != unknown {
			r.heapPop()
			continue
		}
		if r.phase[id-r.lo] == greater {
			return r.sv.litInv[id]
		}
		return id
	}
	return -1
}

// bump raises the activity of the canonical pair behind literal v.
func (r *cdclRun) bump(v int32) {
	if inv := r.sv.litInv[v]; inv < v {
		v = inv
	}
	rel := v - r.lo
	r.act[rel] += r.varInc
	if r.act[rel] > varActRescale {
		for i := range r.act {
			r.act[i] *= 1 / varActRescale
		}
		r.varInc *= 1 / varActRescale
		// Scaling can round distinct activities to equal ones, which the
		// index tie-break then orders differently: rebuild the heap.
		r.heapify()
		return
	}
	if k := r.cidx[rel]; k >= 0 && r.heapPos[k] >= 0 {
		r.heapUp(r.heapPos[k])
	}
}

// before is the order heap's ordering on constrained indices: higher
// activity first, then lower index.
func (r *cdclRun) before(x, y int32) bool {
	ax, ay := r.act[r.c.constrained[x]-r.lo], r.act[r.c.constrained[y]-r.lo]
	return ax > ay || (ax == ay && x < y)
}

func (r *cdclRun) heapUp(pos int32) {
	h, k := r.heap, r.heap[pos]
	for pos > 0 {
		parent := (pos - 1) / 2
		if !r.before(k, h[parent]) {
			break
		}
		h[pos] = h[parent]
		r.heapPos[h[pos]] = pos
		pos = parent
	}
	h[pos], r.heapPos[k] = k, pos
}

func (r *cdclRun) heapDown(pos int32) {
	h, k := r.heap, r.heap[pos]
	n := int32(len(h))
	for {
		c := 2*pos + 1
		if c >= n {
			break
		}
		if c+1 < n && r.before(h[c+1], h[c]) {
			c++
		}
		if !r.before(h[c], k) {
			break
		}
		h[pos] = h[c]
		r.heapPos[h[pos]] = pos
		pos = c
	}
	h[pos], r.heapPos[k] = k, pos
}

func (r *cdclRun) heapInsert(k int32) {
	r.heap = append(r.heap, k)
	r.heapUp(int32(len(r.heap) - 1))
}

// heapPop removes the heap's top.
func (r *cdclRun) heapPop() {
	last := len(r.heap) - 1
	r.heapPos[r.heap[0]] = -1
	r.heap[0] = r.heap[last]
	r.heap = r.heap[:last]
	if last > 0 {
		r.heapDown(0)
	}
}

func (r *cdclRun) heapify() {
	for pos := int32(len(r.heap)/2 - 1); pos >= 0; pos-- {
		r.heapDown(pos)
	}
}

func (r *cdclRun) decay() { r.varInc *= 1 / varActDecay }

// publish snapshots the run's clause store into the component's
// persistent database. Over budget, the shortest and then most-used
// clauses win: short clauses prune the most, and uses counts how often
// a clause actually propagated this run.
func (r *cdclRun) publish() {
	n := len(r.start) - 1
	if n == r.pcount {
		return
	}
	keep := make([]int32, n)
	for k := range keep {
		keep[k] = int32(k)
	}
	if n > maxLearnedPerComp {
		sort.Slice(keep, func(x, y int) bool {
			kx, ky := keep[x], keep[y]
			lx := r.start[kx+1] - r.start[kx]
			ly := r.start[ky+1] - r.start[ky]
			if lx != ly {
				return lx < ly
			}
			return r.uses[kx] > r.uses[ky]
		})
		keep = keep[:maxLearnedPerComp]
		sort.Slice(keep, func(x, y int) bool { return keep[x] < keep[y] })
	}
	db := &learnedDB{
		lits:  make([]int32, 0, len(r.lits)),
		start: make([]int32, 1, len(keep)+1),
	}
	for _, k := range keep {
		for _, w := range r.lits[r.start[k]:r.start[k+1]] {
			db.lits = append(db.lits, w-r.lo)
		}
		db.start = append(db.start, int32(len(db.lits)))
	}
	r.c.learned.Store(db)
}

// fillComp totally orders the component's remaining pairs after every
// rule-constrained pair is oriented. All rules are settled by then, so
// under eager transitive closure any unknown pair can be oriented
// without creating a cycle — the sweep never backtracks, and unlike
// findUnknownIn (which rescans from the top per decision) it is a
// single forward pass over each block.
func (sv *Solver) fillComp(st *state, ci int) bool {
	c := sv.comps[ci]
	for _, bi := range c.blocks {
		off, bn := sv.litOff[bi], sv.blockN[bi]
		for i := int32(0); i < bn; i++ {
			row := st.a[off+i*bn : off+(i+1)*bn]
			for j := i + 1; j < bn; j++ {
				if row[j] != unknown {
					continue
				}
				st.q = append(st.q[:0], off+i*bn+j)
				if !sv.propagate(st) {
					return false
				}
			}
		}
	}
	return true
}

// luby returns the i-th term (0-based) of the Luby restart sequence
// 1, 1, 2, 1, 1, 2, 4, 1, ...
func luby(i int) int {
	size, seq := 1, 0
	for size < i+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != i {
		size = (size - 1) / 2
		seq--
		i %= size
	}
	return 1 << seq
}
