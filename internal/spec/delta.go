package spec

// Delta support: incremental changes to a specification. The paper's
// setting is dynamic — tuples keep arriving, audits reveal new order
// fragments, constraints and copy functions come and go — and the engine
// (internal/osolve) can re-ground a patched specification incrementally
// instead of from scratch. Delta is the change vocabulary every layer of
// that pipeline shares: the wire format (internal/api) maps onto it, the
// solver consumes it to decide which blocks are touched, and Diff
// recovers a Delta from two specification snapshots.

import (
	"fmt"
	"sort"

	"currency/internal/copyfn"
	"currency/internal/dc"
	"currency/internal/order"
	"currency/internal/relation"
)

// TupleInsert appends one tuple to a relation.
type TupleInsert struct {
	Rel   string
	Label string // optional display label
	Tuple relation.Tuple
}

// TupleDelete removes one tuple, addressed by its index in the PRE-delta
// instance. Order pairs and copy-function mappings referencing the tuple
// are dropped; indices of later tuples shift down.
type TupleDelete struct {
	Rel   string
	Index int
}

// OrderAdd reveals one currency-order pair i ≺ j. Indices address the
// POST-delta instance (after deletes and inserts), so freshly inserted
// tuples can be ordered in the same delta.
type OrderAdd struct {
	Rel  string
	Attr string
	I, J int
}

// Delta is one incremental change set. Apply performs the pieces in a
// fixed order: tuple deletes (pre-delta indices), tuple inserts
// (appended), order adds (post-delta indices), constraint drops, adds,
// copy-function drops, adds. Added copy functions reference post-delta
// tuple indices.
type Delta struct {
	Deletes         []TupleDelete
	Inserts         []TupleInsert
	Orders          []OrderAdd
	DropConstraints []string // by name
	AddConstraints  []*dc.Constraint
	DropCopies      []string // by name
	AddCopies       []*copyfn.CopyFunction
}

// Empty reports whether the delta changes nothing.
func (d *Delta) Empty() bool {
	return len(d.Deletes) == 0 && len(d.Inserts) == 0 && len(d.Orders) == 0 &&
		len(d.DropConstraints) == 0 && len(d.AddConstraints) == 0 &&
		len(d.DropCopies) == 0 && len(d.AddCopies) == 0
}

// ApplyInfo reports how Apply rewired the specification, for consumers
// that patch derived structures (the solver's literal remap).
type ApplyInfo struct {
	// TupleMap maps, per relation with deletes, each pre-delta tuple index
	// to its post-delta index (-1 = deleted). A missing entry means the
	// identity mapping (the relation had no deletes; inserts only append).
	TupleMap map[string][]int
}

// OldIndex translates a pre-delta tuple index of rel, returning -1 for
// deleted tuples.
func (in *ApplyInfo) OldIndex(rel string, i int) int {
	if in == nil || in.TupleMap == nil {
		return i
	}
	tm, ok := in.TupleMap[rel]
	if !ok {
		return i
	}
	return tm[i]
}

// Validate checks the delta against a specification without applying it:
// every referenced relation, tuple, attribute and name must resolve.
// Order-add endpoints are validated during Apply (they address the
// post-delta instance).
func (d *Delta) Validate(s *Spec) error {
	for _, td := range d.Deletes {
		r, ok := s.Relation(td.Rel)
		if !ok {
			return fmt.Errorf("spec: delta deletes from unknown relation %s", td.Rel)
		}
		if td.Index < 0 || td.Index >= r.Len() {
			return fmt.Errorf("spec: delta deletes out-of-range tuple %d of %s", td.Index, td.Rel)
		}
	}
	for _, ti := range d.Inserts {
		r, ok := s.Relation(ti.Rel)
		if !ok {
			return fmt.Errorf("spec: delta inserts into unknown relation %s", ti.Rel)
		}
		if len(ti.Tuple) != r.Schema.Arity() {
			return fmt.Errorf("spec: delta insert arity %d does not match %s arity %d",
				len(ti.Tuple), ti.Rel, r.Schema.Arity())
		}
	}
	for _, oa := range d.Orders {
		r, ok := s.Relation(oa.Rel)
		if !ok {
			return fmt.Errorf("spec: delta orders unknown relation %s", oa.Rel)
		}
		if _, ok := r.Schema.AttrIndex(oa.Attr); !ok {
			return fmt.Errorf("spec: delta orders unknown attribute %s.%s", oa.Rel, oa.Attr)
		}
	}
	names := make(map[string]bool, len(s.Constraints))
	for _, c := range s.Constraints {
		names[c.Name] = true
	}
	for _, n := range d.DropConstraints {
		if !names[n] {
			return fmt.Errorf("spec: delta drops unknown constraint %s", n)
		}
	}
	for _, c := range d.AddConstraints {
		if _, ok := s.Relation(c.Relation); !ok {
			return fmt.Errorf("spec: delta constraint %s targets unknown relation %s", c.Name, c.Relation)
		}
	}
	cnames := make(map[string]bool, len(s.Copies))
	for _, cf := range s.Copies {
		cnames[cf.Name] = true
	}
	for _, n := range d.DropCopies {
		if !cnames[n] {
			return fmt.Errorf("spec: delta drops unknown copy function %s", n)
		}
	}
	return nil
}

// Apply returns the patched specification. It is copy-on-write: untouched
// relations, constraints and copy functions are shared by pointer with s
// (all are immutable by the library's read contract), so the original
// specification — and any solver grounded from it — stays valid for
// readers in flight. Validation is incremental: only the touched parts
// are re-checked.
func (d *Delta) Apply(s *Spec) (*Spec, *ApplyInfo, error) {
	if err := d.Validate(s); err != nil {
		return nil, nil, err
	}
	out := &Spec{
		Relations:   append([]*relation.TemporalInstance(nil), s.Relations...),
		Constraints: append([]*dc.Constraint(nil), s.Constraints...),
		Copies:      append([]*copyfn.CopyFunction(nil), s.Copies...),
	}
	info := &ApplyInfo{TupleMap: make(map[string][]int)}

	// cow returns out's private copy of the named relation, shallow-cloning
	// it the first time the delta touches it: tuples are immutable once
	// registered (deltas append or drop whole tuples, never rewrite
	// values), so the Tuple slices are shared and only the slice headers
	// are private. Pair sets are shared per attribute until an order add
	// or delete touches them (cowOrders).
	cowed := make(map[string]bool)
	cow := func(name string) *relation.TemporalInstance {
		for i, r := range out.Relations {
			if r.Schema.Name != name {
				continue
			}
			if !cowed[name] {
				nr := &relation.TemporalInstance{
					Instance: &relation.Instance{
						Schema: r.Schema,
						Tuples: append([]relation.Tuple(nil), r.Tuples...),
						Labels: append([]string(nil), r.Labels...),
					},
					Orders: append([]*order.PairSet(nil), r.Orders...),
				}
				out.Relations[i] = nr
				cowed[name] = true
			}
			return out.Relations[i]
		}
		return nil
	}
	// cowOrders gives the relation a private pair set for attribute ai.
	cowedOrders := make(map[string]map[int]bool)
	cowOrders := func(name string, ai int) {
		r := cow(name)
		if cowedOrders[name] == nil {
			cowedOrders[name] = make(map[int]bool)
		}
		if !cowedOrders[name][ai] {
			if r.Orders[ai] != nil {
				r.Orders[ai] = r.Orders[ai].Clone()
			}
			cowedOrders[name][ai] = true
		}
	}

	// Deletes first, grouped per relation so the index remap is computed
	// once. Duplicate deletes of the same index are rejected.
	delByRel := make(map[string][]int)
	for _, td := range d.Deletes {
		delByRel[td.Rel] = append(delByRel[td.Rel], td.Index)
	}
	for rel, idxs := range delByRel {
		sort.Ints(idxs)
		for k := 1; k < len(idxs); k++ {
			if idxs[k] == idxs[k-1] {
				return nil, nil, fmt.Errorf("spec: delta deletes tuple %d of %s twice", idxs[k], rel)
			}
		}
		r := cow(rel)
		tm := make([]int, r.Len())
		gone := make(map[int]bool, len(idxs))
		for _, i := range idxs {
			gone[i] = true
		}
		next := 0
		newTuples := make([]relation.Tuple, 0, r.Len()-len(idxs))
		newLabels := make([]string, 0, r.Len()-len(idxs))
		for i := range r.Tuples {
			if gone[i] {
				tm[i] = -1
				continue
			}
			tm[i] = next
			next++
			newTuples = append(newTuples, r.Tuples[i])
			newLabels = append(newLabels, r.Labels[i])
		}
		r.Tuples, r.Labels = newTuples, newLabels
		info.TupleMap[rel] = tm
		// Remap the currency orders, dropping pairs on deleted tuples.
		// The rebuilt sets are private by construction.
		if cowedOrders[rel] == nil {
			cowedOrders[rel] = make(map[int]bool)
		}
		for ai, ps := range r.Orders {
			if ps == nil {
				continue
			}
			np := order.NewPairSet()
			// Range walks the adjacency index directly — no materialized,
			// sorted pair slice per attribute, which made delete-heavy
			// deltas pay O(pairs log pairs) per block here.
			ps.Range(func(a, b int) bool {
				if tm[a] >= 0 && tm[b] >= 0 {
					np.Add(tm[a], tm[b])
				}
				return true
			})
			r.Orders[ai] = np
			cowedOrders[rel][ai] = true
		}
	}
	// Remap copy functions over relations with deletes, dropping mapping
	// entries whose endpoint is gone. Entry drops change the compat rules,
	// which the solver detects through the tuple map.
	for i, cf := range out.Copies {
		tmT, okT := info.TupleMap[cf.Target]
		tmS, okS := info.TupleMap[cf.Source]
		if !okT && !okS {
			continue
		}
		nc := copyfn.New(cf.Name, cf.Target, cf.Source, cf.TargetAttrs, cf.SourceAttrs)
		for t, sv := range cf.Mapping {
			nt, ns := t, sv
			if okT {
				nt = tmT[t]
			}
			if okS {
				ns = tmS[sv]
			}
			if nt >= 0 && ns >= 0 {
				nc.Set(nt, ns)
			}
		}
		out.Copies[i] = nc
	}

	// Inserts append; pre-delta indices are unaffected.
	for _, ti := range d.Inserts {
		r := cow(ti.Rel)
		if _, err := r.AddLabeled(ti.Label, ti.Tuple); err != nil {
			return nil, nil, err
		}
	}

	// Order adds address the post-delta instance. AddOrder validates
	// range, entity agreement and irreflexivity; acyclicity is re-checked
	// below for exactly the (attribute, entity) groups that gained pairs —
	// not the whole relation, which would put an O(entities × pairs)
	// sweep on the incremental path.
	var touches []orderTouch
	seen := make(map[orderTouch]bool)
	for _, oa := range d.Orders {
		r := cow(oa.Rel)
		ai, ok := r.Schema.AttrIndex(oa.Attr)
		if !ok {
			return nil, nil, fmt.Errorf("spec: delta orders unknown attribute %s.%s", oa.Rel, oa.Attr)
		}
		cowOrders(oa.Rel, ai)
		if err := r.AddOrder(oa.Attr, oa.I, oa.J); err != nil {
			return nil, nil, err
		}
		if ot := (orderTouch{oa.Rel, ai, r.EID(oa.I)}); !seen[ot] {
			seen[ot] = true
			touches = append(touches, ot)
		}
	}
	if err := checkTouched(out, touches); err != nil {
		return nil, nil, err
	}

	// Constraint drops, then adds (a drop+add pair of the same name is a
	// replacement).
	if len(d.DropConstraints) > 0 {
		drop := make(map[string]bool, len(d.DropConstraints))
		for _, n := range d.DropConstraints {
			drop[n] = true
		}
		kept := out.Constraints[:0:0]
		for _, c := range out.Constraints {
			if !drop[c.Name] {
				kept = append(kept, c)
			}
		}
		out.Constraints = kept
	}
	for _, c := range d.AddConstraints {
		for _, have := range out.Constraints {
			if have.Name == c.Name {
				return nil, nil, fmt.Errorf("spec: delta adds duplicate constraint %s (drop it first)", c.Name)
			}
		}
		if err := out.AddConstraint(c); err != nil {
			return nil, nil, err
		}
	}

	// Copy drops, then adds.
	if len(d.DropCopies) > 0 {
		drop := make(map[string]bool, len(d.DropCopies))
		for _, n := range d.DropCopies {
			drop[n] = true
		}
		kept := out.Copies[:0:0]
		for _, cf := range out.Copies {
			if !drop[cf.Name] {
				kept = append(kept, cf)
			}
		}
		out.Copies = kept
	}
	for _, cf := range d.AddCopies {
		for _, have := range out.Copies {
			if have.Name == cf.Name {
				return nil, nil, fmt.Errorf("spec: delta adds duplicate copy function %s (drop it first)", cf.Name)
			}
		}
		if err := out.AddCopy(cf); err != nil {
			return nil, nil, err
		}
	}
	return out, info, nil
}

// Diff computes a Delta turning old into new, for callers that snapshot
// specifications and want the incremental path: Apply(Diff(old, new), old)
// reproduces new up to canonical form. Relations must agree by name and
// schema; each new tuple sequence must be a subsequence of the old one
// followed by appended tuples (the shape Apply produces); removed order
// pairs are not expressible and are reported as errors. Constraints and
// copy functions are matched by name; a changed definition becomes a
// drop+add pair.
func Diff(old, new *Spec) (*Delta, error) {
	d := &Delta{}
	if len(old.Relations) != len(new.Relations) {
		return nil, fmt.Errorf("spec: diff cannot add or remove relations")
	}
	for i, or := range old.Relations {
		nr := new.Relations[i]
		if or.Schema.Name != nr.Schema.Name || or.Schema.Arity() != nr.Schema.Arity() {
			return nil, fmt.Errorf("spec: diff schema mismatch at relation %d (%s vs %s)",
				i, or.Schema.Name, nr.Schema.Name)
		}
		// Greedy subsequence match: old tuples either survive in order or
		// were deleted; trailing new tuples are inserts.
		tm := make([]int, or.Len())
		ni := 0
		for oi := range or.Tuples {
			if ni < nr.Len() && or.Tuples[oi].Equal(nr.Tuples[ni]) {
				tm[oi] = ni
				ni++
			} else {
				tm[oi] = -1
				d.Deletes = append(d.Deletes, TupleDelete{Rel: or.Schema.Name, Index: oi})
			}
		}
		for ; ni < nr.Len(); ni++ {
			d.Inserts = append(d.Inserts, TupleInsert{
				Rel:   or.Schema.Name,
				Label: nr.Labels[ni],
				Tuple: nr.Tuples[ni],
			})
		}
		for _, ai := range or.Schema.NonEIDIndexes() {
			ops, nps := or.Orders[ai], nr.Orders[ai]
			for _, p := range opsPairs(ops) {
				if tm[p.A] < 0 || tm[p.B] < 0 {
					continue // pair died with its tuple
				}
				if nps == nil || !nps.Has(tm[p.A], tm[p.B]) {
					return nil, fmt.Errorf("spec: diff of %s.%s removes order pair (%d,%d); deltas only add orders",
						or.Schema.Name, or.Schema.Attrs[ai], p.A, p.B)
				}
			}
			inv := make(map[int]int, nr.Len()) // new index -> old index
			for oi, niIdx := range tm {
				if niIdx >= 0 {
					inv[niIdx] = oi
				}
			}
			for _, p := range opsPairs(nps) {
				oa, aOld := inv[p.A]
				ob, bOld := inv[p.B]
				if aOld && bOld && ops != nil && ops.Has(oa, ob) {
					continue
				}
				d.Orders = append(d.Orders, OrderAdd{
					Rel: or.Schema.Name, Attr: or.Schema.Attrs[ai], I: p.A, J: p.B,
				})
			}
		}
	}
	oldC := make(map[string]*dc.Constraint, len(old.Constraints))
	for _, c := range old.Constraints {
		oldC[c.Name] = c
	}
	newC := make(map[string]bool, len(new.Constraints))
	for _, c := range new.Constraints {
		newC[c.Name] = true
		if have, ok := oldC[c.Name]; !ok {
			d.AddConstraints = append(d.AddConstraints, c)
		} else if have.String() != c.String() {
			d.DropConstraints = append(d.DropConstraints, c.Name)
			d.AddConstraints = append(d.AddConstraints, c)
		}
	}
	for _, c := range old.Constraints {
		if !newC[c.Name] {
			d.DropConstraints = append(d.DropConstraints, c.Name)
		}
	}
	oldCf := make(map[string]*copyfn.CopyFunction, len(old.Copies))
	for _, cf := range old.Copies {
		oldCf[cf.Name] = cf
	}
	newCf := make(map[string]bool, len(new.Copies))
	for _, cf := range new.Copies {
		newCf[cf.Name] = true
		if have, ok := oldCf[cf.Name]; !ok {
			d.AddCopies = append(d.AddCopies, cf)
		} else if !sameCopyUnderDiff(have, cf, d, old) {
			d.DropCopies = append(d.DropCopies, cf.Name)
			d.AddCopies = append(d.AddCopies, cf)
		}
	}
	for _, cf := range old.Copies {
		if !newCf[cf.Name] {
			d.DropCopies = append(d.DropCopies, cf.Name)
		}
	}
	return d, nil
}

// orderTouch names one (relation, attribute, entity) group that a
// delta's order reveals added pairs to.
type orderTouch struct {
	rel string
	ai  int
	eid relation.Value
}

// checkTouched re-checks the touched groups for cycles, in delta order.
// One pass over each touched relation collects the members of all its
// touched entities, and one order.Checker serves every group.
func checkTouched(s *Spec, touches []orderTouch) error {
	members := make(map[string]map[relation.Value][]int)
	for _, ot := range touches {
		if members[ot.rel] == nil {
			members[ot.rel] = make(map[relation.Value][]int)
		}
		members[ot.rel][ot.eid] = nil
	}
	for rel, byEID := range members {
		r, _ := s.Relation(rel)
		for i := range r.Tuples {
			if ms, ok := byEID[r.EID(i)]; ok {
				byEID[r.EID(i)] = append(ms, i)
			}
		}
	}
	var chk order.Checker
	for _, ot := range touches {
		r, _ := s.Relation(ot.rel)
		if chk.Check(r.Orders[ot.ai], members[ot.rel][ot.eid]) != nil {
			return fmt.Errorf("spec: delta on %s.%s entity %s: order contains a cycle",
				ot.rel, r.Schema.Attrs[ot.ai], ot.eid)
		}
	}
	return nil
}

// delOf collects the deletes of one relation accumulated so far.
func delOf(d *Delta, rel string) []int {
	var out []int
	for _, td := range d.Deletes {
		if td.Rel == rel {
			out = append(out, td.Index)
		}
	}
	return out
}

// opsPairs is Pairs() tolerating a nil set.
func opsPairs(ps *order.PairSet) []order.Pair {
	if ps == nil {
		return nil
	}
	return ps.Pairs()
}

// sameCopyUnderDiff reports whether the new copy function equals the old
// one after the diff's tuple remapping (Apply performs that remapping
// itself, so such copies need no drop+add).
func sameCopyUnderDiff(oldCf, newCf *copyfn.CopyFunction, d *Delta, old *Spec) bool {
	if oldCf.Target != newCf.Target || oldCf.Source != newCf.Source ||
		fmt.Sprint(oldCf.TargetAttrs) != fmt.Sprint(newCf.TargetAttrs) ||
		fmt.Sprint(oldCf.SourceAttrs) != fmt.Sprint(newCf.SourceAttrs) {
		return false
	}
	tm := diffTupleMap(d, old, oldCf.Target)
	sm := diffTupleMap(d, old, oldCf.Source)
	want := make(map[int]int, len(oldCf.Mapping))
	for t, s := range oldCf.Mapping {
		nt, ns := t, s
		if tm != nil {
			nt = tm[t]
		}
		if sm != nil {
			ns = sm[s]
		}
		if nt >= 0 && ns >= 0 {
			want[nt] = ns
		}
	}
	if len(want) != len(newCf.Mapping) {
		return false
	}
	for t, s := range newCf.Mapping {
		if ws, ok := want[t]; !ok || ws != s {
			return false
		}
	}
	return true
}

// diffTupleMap reconstructs the old→new index map the diff's deletes of
// rel imply (nil = identity).
func diffTupleMap(d *Delta, old *Spec, rel string) []int {
	idxs := delOf(d, rel)
	if len(idxs) == 0 {
		return nil
	}
	r, _ := old.Relation(rel)
	gone := make(map[int]bool, len(idxs))
	for _, i := range idxs {
		gone[i] = true
	}
	tm := make([]int, r.Len())
	next := 0
	for i := range tm {
		if gone[i] {
			tm[i] = -1
			continue
		}
		tm[i] = next
		next++
	}
	return tm
}
