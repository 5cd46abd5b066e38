// Package tractable implements the polynomial-time special cases of
// Section 6 of the paper, for specifications WITHOUT denial constraints:
//
//   - Theorem 6.1: CPS, COP and DCIP in PTIME, via a fixpoint computation
//     that propagates partial currency orders along copy functions in both
//     directions until nothing changes or a cycle appears;
//   - Lemma 6.2: the computed fixpoint PO∞ equals the intersection of all
//     consistent completions (the certain currency order);
//   - Proposition 6.3: CCQA in PTIME for SP queries, via the poss(S)
//     construction with fresh labelled nulls;
//   - Theorem 6.4: CPP and BCP in PTIME for SP queries (k fixed), via
//     per-entity reachable-answer analysis.
//
// These implementations are independent of the exact solver in
// internal/osolve and are differentially tested against it.
//
// Routing note: the exact engine now also exploits per-entity structure —
// it decomposes the problem into connected components of its ground-rule
// graph and searches them independently (see internal/osolve) — but its
// per-component search is still worst-case exponential in the component
// size. The algorithms here remain strictly polynomial, so the server's
// auto-routing (internal/server) keeps preferring them whenever a request
// is in scope: no denial constraints, and an SP query for the
// query-dependent problems.
package tractable

import (
	"fmt"

	"currency/internal/order"
	"currency/internal/relation"
	"currency/internal/spec"
)

// ErrHasConstraints is returned when a tractable algorithm is invoked on a
// specification carrying denial constraints, outside its scope.
var ErrHasConstraints = fmt.Errorf("tractable: specification has denial constraints; use the exact reasoner")

// PO holds the fixpoint certain orders PO∞: per relation, one transitively
// closed pair set per attribute index.
type PO struct {
	// Sets[rel][attrIdx] is the certain order; nil at the EID index.
	Sets map[string][]*order.PairSet
	// Consistent is false when the fixpoint produced a cycle, i.e.
	// Mod(S) = ∅.
	Consistent bool
}

// Has reports whether i ≺ j on attribute index ai of rel is certain.
func (po *PO) Has(rel string, ai, i, j int) bool {
	sets, ok := po.Sets[rel]
	if !ok || sets[ai] == nil {
		return false
	}
	return sets[ai].Has(i, j)
}

// POInfinity runs the Theorem 6.1 fixpoint: starting from the given
// partial orders (transitively closed), repeatedly transfer order
// information across copy functions — source to target by
// ≺-compatibility, and target to source by its contrapositive (sound
// because completed orders are total per entity) — until a fixpoint or a
// cycle is reached.
func POInfinity(s *spec.Spec) (*PO, error) {
	if len(s.Constraints) > 0 {
		return nil, ErrHasConstraints
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	po := &PO{Sets: make(map[string][]*order.PairSet), Consistent: true}
	for _, r := range s.Relations {
		sets := make([]*order.PairSet, r.Schema.Arity())
		for _, ai := range r.Schema.NonEIDIndexes() {
			if r.Orders[ai] != nil {
				sets[ai] = r.Orders[ai].TransitiveClosure()
			} else {
				sets[ai] = order.NewPairSet()
			}
		}
		po.Sets[r.Schema.Name] = sets
	}

	checkAcyclic := func() bool {
		for _, r := range s.Relations {
			sets := po.Sets[r.Schema.Name]
			for _, ai := range r.Schema.NonEIDIndexes() {
				if sets[ai].HasCycle() {
					return false
				}
			}
		}
		return true
	}

	for {
		changed := false
		for _, cf := range s.Copies {
			tgt, _ := s.Relation(cf.Target)
			src, _ := s.Relation(cf.Source)
			pairs, err := cf.AttrPairs(tgt.Schema, src.Schema)
			if err != nil {
				return nil, err
			}
			mapped := cf.Pairs()
			tSets := po.Sets[cf.Target]
			sSets := po.Sets[cf.Source]
			for a := 0; a < len(mapped); a++ {
				for b := 0; b < len(mapped); b++ {
					if a == b {
						continue
					}
					t1, s1 := mapped[a][0], mapped[a][1]
					t2, s2 := mapped[b][0], mapped[b][1]
					if tgt.EID(t1) != tgt.EID(t2) || src.EID(s1) != src.EID(s2) {
						continue
					}
					for _, p := range pairs {
						tA, sA := p[0], p[1]
						// Source to target: ≺-compatibility.
						if s1 != s2 && sSets[sA].Has(s1, s2) && !tSets[tA].Has(t1, t2) {
							tSets[tA].Add(t1, t2)
							changed = true
						}
						// Target to source: if t1 ≺ t2 is certain, s2 ≺ s1
						// would force t2 ≺ t1 by compatibility — impossible
						// in a total order — so s1 ≺ s2. Sound only for
						// distinct source tuples.
						if s1 != s2 && t1 != t2 && tSets[tA].Has(t1, t2) && !sSets[sA].Has(s1, s2) {
							sSets[sA].Add(s1, s2)
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			break
		}
		// Re-close transitively after each sweep.
		for name, sets := range po.Sets {
			for ai, ps := range sets {
				if ps != nil {
					sets[ai] = ps.TransitiveClosure()
				}
			}
			po.Sets[name] = sets
		}
		if !checkAcyclic() {
			po.Consistent = false
			return po, nil
		}
	}
	if !checkAcyclic() {
		po.Consistent = false
	}
	return po, nil
}

// Consistent decides CPS for constraint-free specifications in PTIME
// (Theorem 6.1).
func Consistent(s *spec.Spec) (bool, error) {
	po, err := POInfinity(s)
	if err != nil {
		return false, err
	}
	return po.Consistent, nil
}

// OrderRequirement mirrors core.OrderRequirement without importing it:
// tuple I must precede tuple J on Attr of Rel in every completion.
type OrderRequirement struct {
	Rel  string
	Attr string
	I, J int
}

// CertainOrder decides COP for constraint-free specifications in PTIME:
// by Lemma 6.2, a pair is certain iff it lies in PO∞. Vacuously true when
// the specification is inconsistent.
func CertainOrder(s *spec.Spec, reqs []OrderRequirement) (bool, error) {
	po, err := POInfinity(s)
	if err != nil {
		return false, err
	}
	return po.CertainOrder(s, reqs)
}

// CertainOrder decides COP from s's fixpoint po: every requirement must
// lie in PO∞ (Lemma 6.2). Vacuously true when po is inconsistent.
func (po *PO) CertainOrder(s *spec.Spec, reqs []OrderRequirement) (bool, error) {
	if !po.Consistent {
		return true, nil
	}
	for _, req := range reqs {
		r, ok := s.Relation(req.Rel)
		if !ok {
			return false, fmt.Errorf("tractable: unknown relation %s", req.Rel)
		}
		ai, ok := r.Schema.AttrIndex(req.Attr)
		if !ok {
			return false, fmt.Errorf("tractable: unknown attribute %s.%s", req.Rel, req.Attr)
		}
		if !po.Has(req.Rel, ai, req.I, req.J) {
			return false, nil
		}
	}
	return true, nil
}

// sinks returns the members of group with no PO∞ successor inside the
// group: the tuples that can be most current in some completion.
func sinks(ps *order.PairSet, group []int) []int {
	var out []int
	for _, i := range group {
		isSink := true
		for _, j := range group {
			if i != j && ps.Has(i, j) {
				isSink = false
				break
			}
		}
		if isSink {
			out = append(out, i)
		}
	}
	return out
}

// Deterministic decides DCIP for constraint-free specifications in PTIME
// (Theorem 6.1): the current instance of rel is unique iff, per attribute
// and entity, all PO∞ sinks agree on the attribute value. Vacuously true
// when the specification is inconsistent.
func Deterministic(s *spec.Spec, rel string) (bool, error) {
	po, err := POInfinity(s)
	if err != nil {
		return false, err
	}
	return po.Deterministic(s, rel)
}

// Deterministic decides DCIP for rel from s's fixpoint po: per attribute
// and entity, all PO∞ sinks must agree on the attribute value. Vacuously
// true when po is inconsistent.
func (po *PO) Deterministic(s *spec.Spec, rel string) (bool, error) {
	if !po.Consistent {
		return true, nil
	}
	r, ok := s.Relation(rel)
	if !ok {
		return false, fmt.Errorf("tractable: unknown relation %s", rel)
	}
	sets := po.Sets[rel]
	groups := r.Entities()
	for _, ai := range r.Schema.NonEIDIndexes() {
		for _, g := range groups {
			sk := sinks(sets[ai], g.Members)
			for _, i := range sk[1:] {
				if r.Tuples[i][ai] != r.Tuples[sk[0]][ai] {
					return false, nil
				}
			}
		}
	}
	return true, nil
}

// CertainPairs exports PO∞ as order requirements for comparison with the
// exact reasoner in tests.
func CertainPairs(s *spec.Spec) ([]OrderRequirement, bool, error) {
	po, err := POInfinity(s)
	if err != nil {
		return nil, false, err
	}
	if !po.Consistent {
		return nil, false, nil
	}
	var out []OrderRequirement
	for _, r := range s.Relations {
		sets := po.Sets[r.Schema.Name]
		for _, ai := range r.Schema.NonEIDIndexes() {
			for _, p := range sets[ai].Pairs() {
				out = append(out, OrderRequirement{
					Rel: r.Schema.Name, Attr: r.Schema.Attrs[ai], I: p.A, J: p.B,
				})
			}
		}
	}
	return out, true, nil
}

// poss builds the poss(S) instance of Proposition 6.3 for one relation:
// one tuple per entity whose attribute values are the unique possible
// current value, or a fresh labelled null when several current values are
// possible. freshBase seeds distinct null ids.
func poss(r *relation.TemporalInstance, sets []*order.PairSet, freshBase *int64) *relation.Instance {
	out := relation.NewInstance(r.Schema)
	for _, g := range r.Entities() {
		t := make(relation.Tuple, r.Schema.Arity())
		t[r.Schema.EIDIndex] = g.EID
		for _, ai := range r.Schema.NonEIDIndexes() {
			sk := sinks(sets[ai], g.Members)
			unique := true
			for _, i := range sk[1:] {
				if r.Tuples[i][ai] != r.Tuples[sk[0]][ai] {
					unique = false
					break
				}
			}
			if unique {
				t[ai] = r.Tuples[sk[0]][ai]
			} else {
				*freshBase++
				t[ai] = relation.Fresh(*freshBase)
			}
		}
		out.MustAdd(t)
	}
	return out
}

// Poss computes poss(S) for every relation of a constraint-free
// specification, keyed by relation name. Returns nil instances and
// ok=false when the specification is inconsistent.
func Poss(s *spec.Spec) (map[string]*relation.Instance, bool, error) {
	po, err := POInfinity(s)
	if err != nil {
		return nil, false, err
	}
	if !po.Consistent {
		return nil, false, nil
	}
	var freshBase int64
	out := make(map[string]*relation.Instance, len(s.Relations))
	for _, r := range s.Relations {
		out[r.Schema.Name] = poss(r, po.Sets[r.Schema.Name], &freshBase)
	}
	return out, true, nil
}
