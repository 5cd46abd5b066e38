package osolve

// Propagation layer — the third of the engine's four layers (see the
// package comment). It maintains one flat orientation arena per state
// with a trail for O(1) backtracking, and closes states under two
// inferences: transitive closure inside a block, and Horn-rule firing
// across blocks. Rule firing is driven by the CSR watch index built by
// the grounding layer: setting a pair re-checks exactly the rules
// watching that literal. Every probe on the hot path — orientation
// lookup, inverse literal, watched rules, rule bodies — is an index into
// a flat array keyed by the dense literal ID; no maps, no per-block or
// per-rule slice headers.
//
// Transitive closure is one kernel, closeEdge, shared by propagate and
// the CDCL propagator (cdcl.go). It relies on the inverse-pair
// invariant: a pair and its inverse are always set and cleared together
// (propagate sets both, undoTo clears both, and every arena copy —
// scopedClone, stateWith, initBaseFrom, the memo spans — copies whole
// block spans), so a block's row i holds i's predecessors as well as its
// successors, and the kernel reads both lists from rows, sequentially.

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

const (
	unknown byte = 0
	less    byte = 1
	greater byte = 2
)

// state is one orientation assignment: a single flat byte arena over the
// literal-ID space (a[id] is the orientation of the pair id encodes; a
// block's matrix is the contiguous span [litOff[bi], litOff[bi+1])). The
// trail records every literal set since the last reset, enabling O(1)
// backtracking by undo; q is the propagation queue, retained so steady-
// state propagation never reallocates. States are recycled through the
// solver's pool: a scoped state's arena holds stale bytes outside the
// spans its query copies in, which is safe because rules never cross
// components — a scoped search provably only reads the touched
// components' spans.
type state struct {
	a     []byte
	trail []int32
	q     []int32

	// pred and succ are closeEdge's scratch (a predecessor list and a
	// successor bit mask per row word), kept on the pooled state so that
	// closure on large blocks allocates nothing once warm.
	pred []int32
	succ []uint64

	// Search-effort counters, accumulated as plain fields so the warm
	// path pays no atomics, and flushed into the solver's EngineStats
	// sink (plus the attached QueryStats, if any) when the state is
	// released — see flushStats in stats.go.
	decisions    uint64
	propagations uint64
	conflicts    uint64
	searches     uint64
	learned      uint64
	backjumps    uint64
	restarts     uint64
	cloneBytes   uint64
	poolHits     uint64
	poolMisses   uint64
	qs           *QueryStats

	// Budget fields, armed per lease by armBudget (budget.go) and
	// cleared by getState. stop latches the interruption verdict once
	// a probe trips, so the unwinding search and the public entry
	// point both observe it; a non-nil stop means the lease's verdict
	// is indeterminate and must not be memoized.
	bDeadline     int64 // unix nanos; 0 = no deadline
	bMaxConflicts uint64
	bCancel       <-chan struct{}
	bCountdown    int32
	stop          *InterruptError
}

// newStatePool builds a pool of search states. States carry no
// generation-specific content — getState sizes the arena and callers
// initialize every span they read — so ApplyDelta shares the pool with
// the patched solver and warm queries stay allocation-free across
// updates.
func newStatePool() *sync.Pool {
	return &sync.Pool{New: func() any {
		return &state{
			trail: make([]int32, 0, 64),
			q:     make([]int32, 0, 64),
		}
	}}
}

// getState fetches a pooled state with empty trail and queue, sized to
// this solver's literal space. The arena contents are unspecified;
// callers must initialize every span they will read (scopedClone,
// stateWith).
func (sv *Solver) getState() *state {
	st := sv.statePool.Get().(*state)
	if cap(st.a) < sv.numLits {
		st.a = make([]byte, sv.numLits)
		st.poolMisses++
	} else {
		st.poolHits++
	}
	st.a = st.a[:sv.numLits]
	st.trail = st.trail[:0]
	st.q = st.q[:0]
	st.bDeadline, st.bMaxConflicts = 0, 0
	st.bCancel, st.bCountdown, st.stop = nil, 0, nil
	return st
}

// putState flushes the state's effort counters into the solver's stats
// sink and recycles it for a later query.
func (sv *Solver) putState(st *state) {
	sv.flushStats(st)
	sv.statePool.Put(st)
}

// mark returns the current trail position for later undo.
func (st *state) mark() int { return len(st.trail) }

// span returns block bi's arena span bounds.
func (sv *Solver) span(bi int) (lo, hi int32) {
	return sv.litOff[bi], sv.litOff[bi+1]
}

// scopedClone builds a pooled state whose arena holds copies of the base
// spans of the listed components; every other span is left stale. Blocks
// of one component are contiguous in the arena (reorderByComponent), so
// each component costs exactly one memcpy. Rules never cross components,
// so searching the listed components only ever reads or writes the
// copied spans — a query touching one component pays a span copy
// proportional to that component, not to the whole problem, and no
// allocation at all once the pool is warm.
func (sv *Solver) scopedClone(comps []int) *state {
	st := sv.getState()
	for _, ci := range comps {
		c := sv.comps[ci]
		copy(st.a[c.lo:c.hi], sv.base.a[c.lo:c.hi])
		st.cloneBytes += uint64(c.hi - c.lo)
	}
	return st
}

// seedBlock pushes block bi's given base-order pairs onto st.q, reading
// the relation's pair-set adjacency (Succ) once per member. The sweep is
// linear in the block's members plus their order edges; materializing
// and sorting the whole relation-attribute pair set per block (Pairs)
// made cold seeding quadratic in entities. Pos is shared across the
// relation's blocks, so a successor counts only when it really is one of
// this block's members — the order also carries other entities' pairs,
// which those entities' blocks pick up. The bounds guard tolerates
// position tables narrower than the instance (descriptors shared across
// solver generations by ApplyDelta).
func (sv *Solver) seedBlock(st *state, bi int, b *Block) {
	r := sv.relOf[b.Key.Rel]
	ps := r.Orders[b.Key.Attr]
	if ps == nil || ps.Len() == 0 {
		return
	}
	n := sv.blockN[bi]
	for pi, ti := range b.Members {
		for _, tj := range ps.Succ(ti) {
			if tj < 0 || tj >= len(b.Pos) {
				continue
			}
			pj := b.Pos[tj]
			if pj < 0 || int32(pj) >= n || b.Members[pj] != tj {
				continue
			}
			st.q = append(st.q, sv.litOff[bi]+int32(pi)*n+int32(pj))
		}
	}
}

// initBase builds the base state: the given partial orders, closed under
// transitivity and rule propagation. Seeding is linear in entities: each
// block reads its members' adjacency once (seedBlock) instead of sorting
// the relation's pair set once per block.
func (sv *Solver) initBase() {
	st := &state{a: make([]byte, sv.numLits)}
	sv.base = st
	if sv.unitConflict {
		sv.baseConflict = true
		return
	}
	for bi, b := range sv.blocks {
		sv.seedBlock(st, bi, b)
	}
	st.q = append(st.q, sv.unitHeads...)
	if !sv.propagate(st) {
		sv.baseConflict = true
	}
	sv.flushStats(st) // count cold base propagation; the state is kept, not pooled
	st.trail = nil    // the base is never undone; free the init trail
	st.q = nil
}

// undoTo reverts every pair set after the given trail mark.
func (sv *Solver) undoTo(st *state, mark int) {
	for k := len(st.trail) - 1; k >= mark; k-- {
		id := st.trail[k]
		st.a[id] = unknown
		st.a[sv.litInv[id]] = unknown
	}
	st.trail = st.trail[:mark]
}

// propagate drains st.q to a fixpoint: transitive closure inside blocks
// and Horn-rule firing via the watch index. Callers seed st.q with the
// literal IDs to assert. Returns false on conflict; either way the queue
// is empty on return, and the trail records exactly the pairs set (so a
// failed propagation is undone by undoTo to the caller's mark).
func (sv *Solver) propagate(st *state) bool {
	stack := st.q
	conflict := func() bool {
		st.conflicts++
		st.q = stack[:0]
		return false
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch st.a[id] {
		case less:
			continue
		case greater:
			return conflict()
		}
		st.a[id] = less
		st.a[sv.litInv[id]] = greater
		st.trail = append(st.trail, id)
		st.propagations++

		var cycle int32
		if stack, cycle = sv.closeEdge(st, id, stack); cycle >= 0 {
			return conflict() // cycle through the new edge
		}

		// Rule firing: only the rules watching the literal that just
		// became true can have become fully satisfied.
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
				return conflict()
			}
			if st.a[h] != less {
				stack = append(stack, h)
			}
		}
	}
	st.q = stack[:0]
	return true
}

// closeListMin is the block size from which closeEdge collects the
// predecessor and successor lists with word-at-a-time row scans. Below
// it the direct triple loop is faster: its rows are at most two words,
// and the scans' setup costs more than they save on the warm path's
// three-tuple blocks.
const closeListMin = 16

// Row-scan masks: unknown=0, less=1 and greater=2 leave less in bit 0 and
// greater in bit 1 of each byte, so one AND selects them across a word.
const (
	lessBits    uint64 = 0x0101010101010101
	greaterBits uint64 = 0x0202020202020202
)

// closeEdge is the transitive-closure kernel. Literal id (i ≺ j in its
// block) has just been set. The new edge implies p ≺ s for every p in
// {i} ∪ pred(i) and every s in {j} ∪ succ(j); closeEdge appends to out
// each such pair not yet less, in (p ascending, s ascending) order, and
// returns out with cycle = -1. If some p equals some s the edge closes a
// cycle: it returns the diagonal ID of the first such p in that order as
// cycle, with nothing appended. Callers push the pairs in the returned
// order, so propagation and conflicts repeat the same whatever the block
// size.
//
// pred(i) is read from row i (a[i][p] == greater), not by striding down
// column i, which is sound only under the inverse-pair invariant (see
// the layer comment). Blocks of closeListMin tuples or more read rows i
// and j once, eight bytes at a time, into a list P and a mask S; each
// p of P then takes S minus row p's less bytes a word at a time.
// Smaller blocks keep the direct loop.
func (sv *Solver) closeEdge(st *state, id int32, out []int32) ([]int32, int32) {
	bi := sv.litBlk[id]
	off := sv.litOff[bi]
	n := sv.blockN[bi]
	rem := id - off
	i, j := rem/n, rem%n
	a := st.a[off : off+n*n]
	if n < closeListMin {
		mark := len(out)
		for p := int32(0); p < n; p++ {
			if p != i && a[p*n+i] != less {
				continue
			}
			for s := int32(0); s < n; s++ {
				if s != j && a[j*n+s] != less {
					continue
				}
				if p == s {
					return out[:mark], off + p*n + p
				}
				if a[p*n+s] != less {
					out = append(out, off+p*n+s)
				}
			}
		}
		return out, -1
	}
	nw := (n + 7) / 8
	if int32(cap(st.succ)) < nw {
		st.succ = make([]uint64, nw)
	}
	S := st.succ[:nw]
	rowJ := a[j*n : (j+1)*n]
	for k := range S {
		S[k] = rowWord(rowJ, int32(8*k)) & lessBits
	}
	S[j>>3] |= 1 << (8 * (j & 7))
	P := scanRow(st.pred[:0], a[i*n:(i+1)*n], greaterBits, i)
	st.pred = P
	for _, p := range P {
		if S[p>>3]>>(8*(p&7))&1 != 0 {
			return out, off + p*n + p
		}
	}
	for _, p := range P {
		row := a[p*n : (p+1)*n]
		base := off + p*n
		for k, sw := range S {
			m := sw &^ rowWord(row, int32(8*k))
			for m != 0 {
				out = append(out, base+int32(8*k)+int32(bits.TrailingZeros64(m)>>3))
				m &= m - 1
			}
		}
	}
	return out, -1
}

// rowWord returns bytes [c, c+8) of row as a little-endian word, with the
// bytes past the row's end read as zero. The list path's rows are at
// least closeListMin ≥ 8 bytes long, so the last, partial word is the
// row's final eight bytes shifted down.
func rowWord(row []byte, c int32) uint64 {
	n := int32(len(row))
	if c+8 <= n {
		return binary.LittleEndian.Uint64(row[c:])
	}
	return binary.LittleEndian.Uint64(row[n-8:]) >> (8 * uint(c+8-n))
}

// scanRow appends to out, ascending, every column of row whose byte has
// one of mask's bits set, and column self, which is the diagonal and so
// never set itself.
func scanRow(out []int32, row []byte, mask uint64, self int32) []int32 {
	for c := int32(0); c < int32(len(row)); c += 8 {
		m := rowWord(row, c) & mask
		if d := uint32(self - c); d < 8 {
			m |= (mask & 0xff) << (8 * d)
		}
		for m != 0 {
			out = append(out, c+int32(bits.TrailingZeros64(m)>>3))
			m &= m - 1
		}
	}
	return out
}

// stateWith returns a pooled full clone of the base state extended with
// the assumptions and propagated, or nil on conflict. Component-scoped
// queries use scopedClone instead; the full clone remains for
// whole-problem procedures (current-database enumeration). The caller
// owns the state and must putState it when done.
func (sv *Solver) stateWith(assume []Lit) *state {
	if sv.baseConflict {
		return nil
	}
	st := sv.getState()
	copy(st.a, sv.base.a)
	st.cloneBytes += uint64(len(st.a))
	for _, l := range assume {
		st.q = append(st.q, sv.litID(l))
	}
	if !sv.propagate(st) {
		sv.putState(st)
		return nil
	}
	return st
}
