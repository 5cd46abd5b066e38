package osolve

// Grounding layer — the first of the engine's four layers (see the
// package comment). It turns the specification into the solver's internal
// vocabulary: blocks, one per (relation, attribute, entity) currency
// order with at least two tuples; a dense literal-ID space interning
// every ordered member pair of every block; ground Horn rules over those
// literal IDs, instantiated from denial constraints and copy-function
// compatibility conditions, stored in CSR form (one flat body arena plus
// start offsets); and the CSR watch index the propagation layer fires
// rules from. After grounding, the hot path never touches a map or a
// per-rule slice header: every probe is an index into a flat array.

import (
	"fmt"
	"math"

	"currency/internal/copyfn"
	"currency/internal/dc"
	"currency/internal/relation"
)

// BlockKey identifies a (relation, attribute, entity) group that carries a
// currency order with at least two tuples.
type BlockKey struct {
	Rel  string
	Attr int
	EID  relation.Value
}

// Block is the solver's view of one currency order to complete.
type Block struct {
	Key     BlockKey
	Members []int // tuple indices, ascending
	// Pos maps tuple index -> member position, indexed by tuple index
	// (dense over the relation's tuples; -1 for singleton-entity
	// tuples). A slice instead of a map keeps the translation boundary
	// O(1) with no hashing. Entity groups are attribute-independent, so
	// all blocks of one relation share a single table — total Pos memory
	// is O(tuples) per relation, not O(blocks × tuples).
	Pos []int
}

// Lit asserts that member I precedes (is less current than) member J in
// the given block. It is the engine's public literal form; internally
// every (Block, I, J) triple is interned into a dense int32 ID (see
// litID) and all hot-path structures are indexed by that ID.
type Lit struct {
	Block int
	I, J  int // member positions within the block
}

// buildBlocks materializes one block per multi-tuple currency order and
// assigns the literal-ID space: block bi owns the contiguous ID range
// [litOff[bi], litOff[bi]+n*n) with ID litOff[bi]+i*n+j meaning "member i
// precedes member j" (diagonal IDs are unused padding — the waste is n
// bytes per block and buys a divide-free encode/decode). The per-literal
// decode tables (litBlk, litInv) are filled alongside. It returns each
// relation's entity groups, for groundRules, and errors when the literal
// space would overflow the int32 ID type.
func (sv *Solver) buildBlocks() (map[string][]relation.EntityGroup, error) {
	groups := make(map[string][]relation.EntityGroup, len(sv.Spec.Relations))
	for _, r := range sv.Spec.Relations {
		groups[r.Schema.Name] = sv.buildRelationBlocks(r)
	}
	return groups, sv.assignLitSpace()
}

// buildRelationBlocks appends the blocks of one relation (attribute-major,
// entity groups in first-occurrence order). This is only the PROVISIONAL
// layout: reorderByComponent permutes the table so each component's
// blocks end up contiguous, and every cross-generation translation in
// ApplyDelta goes through the blockOf key index, never through positional
// assumptions. It returns the relation's entity groups.
func (sv *Solver) buildRelationBlocks(r *relation.TemporalInstance) []relation.EntityGroup {
	sv.relOf[r.Schema.Name] = r
	groups := r.Entities()
	// One position table per relation, shared by every block of the
	// relation: entity grouping doesn't depend on the attribute.
	pos := make([]int, len(r.Tuples))
	for i := range pos {
		pos[i] = -1
	}
	for _, g := range groups {
		if len(g.Members) < 2 {
			continue
		}
		for p, ti := range g.Members {
			pos[ti] = p
		}
	}
	for _, ai := range r.Schema.NonEIDIndexes() {
		for _, g := range groups {
			if len(g.Members) < 2 {
				continue
			}
			key := BlockKey{Rel: r.Schema.Name, Attr: ai, EID: g.EID}
			b := &Block{Key: key, Members: g.Members, Pos: pos}
			sv.blockOf[key] = len(sv.blocks)
			sv.blocks = append(sv.blocks, b)
		}
	}
	return groups
}

// assignLitSpace lays the dense literal-ID space over the block table and
// fills the decode tables.
func (sv *Solver) assignLitSpace() error {
	sv.litOff = make([]int32, len(sv.blocks)+1)
	sv.blockN = make([]int32, len(sv.blocks))
	off := int64(0)
	for bi, b := range sv.blocks {
		n := int64(len(b.Members))
		sv.litOff[bi] = int32(off)
		sv.blockN[bi] = int32(n)
		off += n * n
		if off > math.MaxInt32 {
			return fmt.Errorf("osolve: literal space overflows int32 (%d blocks need >%d literals)",
				len(sv.blocks), math.MaxInt32)
		}
	}
	sv.litOff[len(sv.blocks)] = int32(off)
	sv.numLits = int(off)
	sv.litBlk = make([]int32, sv.numLits)
	sv.litInv = make([]int32, sv.numLits)
	for bi := range sv.blocks {
		base, n := sv.litOff[bi], sv.blockN[bi]
		for i := int32(0); i < n; i++ {
			for j := int32(0); j < n; j++ {
				id := base + i*n + j
				sv.litBlk[id] = int32(bi)
				sv.litInv[id] = base + j*n + i
			}
		}
	}
	return nil
}

// litID interns a public literal into its dense ID.
func (sv *Solver) litID(l Lit) int32 {
	n := sv.blockN[l.Block]
	return sv.litOff[l.Block] + int32(l.I)*n + int32(l.J)
}

// litFor translates a (relation, attribute index, tuple i ≺ tuple j) order
// fact into a solver literal. It returns ok=false when the tuples belong to
// different entities (never comparable). Same-tuple pairs are rejected.
func (sv *Solver) litFor(rel string, attr, i, j int) (Lit, bool, error) {
	r := sv.relOf[rel]
	if r == nil {
		return Lit{}, false, fmt.Errorf("osolve: unknown relation %s", rel)
	}
	if i == j {
		return Lit{}, false, fmt.Errorf("osolve: reflexive literal on tuple %d of %s", i, rel)
	}
	if r.EID(i) != r.EID(j) {
		return Lit{}, false, nil
	}
	key := BlockKey{Rel: rel, Attr: attr, EID: r.EID(i)}
	bi, ok := sv.blockOf[key]
	if !ok {
		return Lit{}, false, fmt.Errorf("osolve: no block for %s.%d entity %s", rel, attr, r.EID(i))
	}
	b := sv.blocks[bi]
	return Lit{Block: bi, I: b.Pos[i], J: b.Pos[j]}, true, nil
}

// headNone marks a rule head of ⊥: a rule whose body becoming true is a
// conflict. A rule's body occupies ruleBody[ruleStart[r]:ruleStart[r+1]];
// its head is ruleHead[r].
const headNone = int32(-1)

// segKind discriminates the two grounding sources.
type segKind uint8

const (
	segConstraint segKind = iota
	segCopy
)

// ruleSeg records which arena ranges one grounding source (a denial
// constraint or a copy function, by name) produced: CSR rules
// [ruleStart, ruleEnd) and unit heads [unitStart, unitEnd). Segments are
// the unit of incremental re-grounding (ApplyDelta): when a delta leaves
// a source and the entities its rules mention untouched, the segment's
// rules are copied into the patched solver by literal remap instead of
// being re-derived.
type ruleSeg struct {
	kind               segKind
	name               string
	ruleStart, ruleEnd int32
	unitStart, unitEnd int32
}

// beginSeg opens a segment for the named source; endSeg closes it at the
// current arena positions.
func (sv *Solver) beginSeg(kind segKind, name string) {
	sv.segs = append(sv.segs, ruleSeg{
		kind: kind, name: name,
		ruleStart: int32(len(sv.ruleHead)), unitStart: int32(len(sv.unitHeads)),
	})
}

func (sv *Solver) endSeg() {
	s := &sv.segs[len(sv.segs)-1]
	s.ruleEnd = int32(len(sv.ruleHead))
	s.unitEnd = int32(len(sv.unitHeads))
}

// addRule appends one ground rule, routing body-less rules to the unit
// tables applied once during base propagation. Rule provenance is not
// retained: origins are recomputable from the spec, and one string per
// ground rule is exactly the kind of per-rule baggage this layer sheds.
func (sv *Solver) addRule(body []int32, head int32) {
	sv.nRules++
	if len(body) == 0 {
		if head == headNone {
			sv.unitConflict = true
		} else {
			sv.unitHeads = append(sv.unitHeads, head)
		}
		return
	}
	sv.ruleBody = append(sv.ruleBody, body...)
	sv.ruleStart = append(sv.ruleStart, int32(len(sv.ruleBody)))
	sv.ruleHead = append(sv.ruleHead, head)
}

// groundRules instantiates denial constraints and copy-function
// compatibility conditions into CSR Horn rules over literal IDs, one
// segment per source. groups holds each relation's entity groups as
// buildBlocks computed them — the groups dc.Ground would recompute per
// constraint, in the same order, so the rules come out the same.
func (sv *Solver) groundRules(groups map[string][]relation.EntityGroup) error {
	sv.ruleStart = append(sv.ruleStart, 0)
	for _, c := range sv.Spec.Constraints {
		sv.beginSeg(segConstraint, c.Name)
		grs, err := dc.GroundGroups(c, sv.relOf[c.Relation], groups[c.Relation])
		if err != nil {
			return err
		}
		if err := sv.addConstraintRules(c.Relation, grs); err != nil {
			return err
		}
		sv.endSeg()
	}
	for _, cf := range sv.Spec.Copies {
		sv.beginSeg(segCopy, cf.Name)
		crs, err := cf.CompatRules(sv.relOf[cf.Target], sv.relOf[cf.Source])
		if err != nil {
			return err
		}
		if err := sv.addCopyRules(cf, crs, nil); err != nil {
			return err
		}
		sv.endSeg()
	}
	return nil
}

// addConstraintRules interns ground rules of one denial constraint.
func (sv *Solver) addConstraintRules(rel string, grs []dc.GroundRule) error {
	var body []int32
	for _, gr := range grs {
		body = body[:0]
		head := headNone
		ok := true
		for _, b := range gr.Body {
			lit, sameEntity, err := sv.litFor(rel, b.Attr, b.I, b.J)
			if err != nil {
				return err
			}
			if !sameEntity {
				ok = false // body atom across entities can never hold
				break
			}
			body = append(body, sv.litID(lit))
		}
		if !ok {
			continue
		}
		if !gr.HeadFalse {
			lit, sameEntity, err := sv.litFor(rel, gr.Head.Attr, gr.Head.I, gr.Head.J)
			if err != nil {
				return err
			}
			// A head across entities can never be satisfied: the rule
			// denies its body (head stays headNone).
			if sameEntity {
				head = sv.litID(lit)
			}
		}
		sv.addRule(body, head)
	}
	return nil
}

// addCopyRules interns ≺-compatibility rules of one copy function. A
// non-nil keep filter restricts to the rules it accepts — the
// incremental path re-derives only the rules of delta-touched entities.
func (sv *Solver) addCopyRules(cf *copyfn.CopyFunction, crs []copyfn.CompatRule, keep func(copyfn.CompatRule) bool) error {
	var body []int32
	for _, cr := range crs {
		if keep != nil && !keep(cr) {
			continue
		}
		srcLit, sameEntity, err := sv.litFor(cf.Source, cr.SAttr, cr.SI, cr.SJ)
		if err != nil {
			return err
		}
		if !sameEntity {
			continue
		}
		body = append(body[:0], sv.litID(srcLit))
		head := headNone
		if cr.TI != cr.TJ {
			tgtLit, sameEntity, err := sv.litFor(cf.Target, cr.TAttr, cr.TI, cr.TJ)
			if err != nil {
				return err
			}
			if sameEntity {
				head = sv.litID(tgtLit)
			}
		}
		sv.addRule(body, head)
	}
	return nil
}

// ruleCount reports the number of CSR (non-unit) rules.
func (sv *Solver) ruleCount() int { return len(sv.ruleHead) }

// ruleBodyOf returns rule ri's body literal IDs (a view into the arena).
func (sv *Solver) ruleBodyOf(ri int32) []int32 {
	return sv.ruleBody[sv.ruleStart[ri]:sv.ruleStart[ri+1]]
}

// indexRules builds the watched-literal index in CSR form: the rules
// watching literal id are watchRules[watchStart[id]:watchStart[id+1]]. A
// rule can only become fully satisfied at the moment one of its body
// literals is set, so the propagation layer re-checks exactly the rules
// watching that literal — with the short bodies DC grounding produces,
// watching every body literal is the degenerate form of the
// two-watched-literal scheme. Duplicate body literals within one rule are
// watched once (bodies are tiny, so the dedup is a linear scan, not a
// map).
func (sv *Solver) indexRules() {
	counts := make([]int32, sv.numLits+1)
	forEachWatch := func(ri int32, f func(id int32)) {
		body := sv.ruleBodyOf(ri)
		for k, id := range body {
			dup := false
			for _, prev := range body[:k] {
				if prev == id {
					dup = true
					break
				}
			}
			if !dup {
				f(id)
			}
		}
	}
	for ri := int32(0); ri < int32(sv.ruleCount()); ri++ {
		forEachWatch(ri, func(id int32) { counts[id]++ })
	}
	sv.watchStart = make([]int32, sv.numLits+1)
	sum := int32(0)
	for id := 0; id <= sv.numLits; id++ {
		sv.watchStart[id] = sum
		if id < sv.numLits {
			sum += counts[id]
		}
	}
	sv.watchRules = make([]int32, sum)
	fill := make([]int32, sv.numLits)
	copy(fill, sv.watchStart[:sv.numLits])
	for ri := int32(0); ri < int32(sv.ruleCount()); ri++ {
		forEachWatch(ri, func(id int32) {
			sv.watchRules[fill[id]] = ri
			fill[id]++
		})
	}
}
