package relation

import (
	"fmt"
	"sort"
	"strings"

	"currency/internal/order"
)

// TemporalInstance is an instance of a schema together with a strict partial
// currency order per non-EID attribute: Dt = (D, ≺A1, ..., ≺An). A pair
// (i ≺ j) in the order of attribute A means tuple j carries a more current
// A-value than tuple i; comparable tuples must share an EID.
type TemporalInstance struct {
	*Instance
	// Orders is indexed by attribute position; the entry at the EID index is
	// unused (nil or empty). Each entry is the *given* partial order, not
	// necessarily transitively closed.
	Orders []*order.PairSet
}

// NewTemporalInstance wraps an instance with empty currency orders.
func NewTemporalInstance(d *Instance) *TemporalInstance {
	orders := make([]*order.PairSet, d.Schema.Arity())
	for _, ai := range d.Schema.NonEIDIndexes() {
		orders[ai] = order.NewPairSet()
	}
	return &TemporalInstance{Instance: d, Orders: orders}
}

// NewTemporal builds an empty temporal instance of the schema.
func NewTemporal(schema *Schema) *TemporalInstance {
	return NewTemporalInstance(NewInstance(schema))
}

// AddOrder records i ≺_attr j (tuple j more current than tuple i in attr).
func (dt *TemporalInstance) AddOrder(attr string, i, j int) error {
	ai, ok := dt.Schema.AttrIndex(attr)
	if !ok {
		return fmt.Errorf("relation: %s has no attribute %q", dt.Schema.Name, attr)
	}
	return dt.AddOrderIdx(ai, i, j)
}

// AddOrderIdx records i ≺ j on the attribute at index ai.
func (dt *TemporalInstance) AddOrderIdx(ai, i, j int) error {
	if ai == dt.Schema.EIDIndex {
		return fmt.Errorf("relation: currency orders are not defined on the EID attribute of %s", dt.Schema.Name)
	}
	if i < 0 || i >= dt.Len() || j < 0 || j >= dt.Len() {
		return fmt.Errorf("relation: order pair (%d,%d) out of range in %s", i, j, dt.Schema.Name)
	}
	if dt.EID(i) != dt.EID(j) {
		return fmt.Errorf("relation: order pair (%s,%s) in %s relates tuples of distinct entities %s and %s",
			dt.Label(i), dt.Label(j), dt.Schema.Name, dt.EID(i), dt.EID(j))
	}
	if i == j {
		return fmt.Errorf("relation: reflexive order pair on tuple %s in %s", dt.Label(i), dt.Schema.Name)
	}
	dt.Orders[ai].Add(i, j)
	return nil
}

// MustAddOrder is AddOrder but panics on error; for tests and fixtures.
func (dt *TemporalInstance) MustAddOrder(attr string, i, j int) {
	if err := dt.AddOrder(attr, i, j); err != nil {
		panic(err)
	}
}

// Validate checks that every per-attribute relation is a strict partial
// order on each entity group (irreflexive, acyclic, EID-respecting). It
// runs in time linear in tuples plus pairs: the entity groups are built
// once, and one order.Checker serves every attribute and group.
func (dt *TemporalInstance) Validate() error {
	var groups []EntityGroup
	var chk order.Checker
	for _, ai := range dt.Schema.NonEIDIndexes() {
		ps := dt.Orders[ai]
		if ps == nil || ps.Len() == 0 {
			continue
		}
		if err := dt.checkPairs(ai, ps); err != nil {
			return err
		}
		if groups == nil {
			groups = dt.Entities()
		}
		for _, g := range groups {
			if err := chk.Check(ps, g.Members); err != nil {
				return fmt.Errorf("relation: %s.%s on entity %s: %w",
					dt.Schema.Name, dt.Schema.Attrs[ai], g.EID, err)
			}
		}
	}
	return nil
}

// checkPairs reports the first pair of ps in (A, B) order that is out of
// range or crosses entities. The test runs over Range; only an instance
// that fails it pays for the sorted Pairs walk that names the first bad
// pair.
func (dt *TemporalInstance) checkPairs(ai int, ps *order.PairSet) error {
	n := dt.Len()
	inRange := func(a, b int) bool { return a >= 0 && a < n && b >= 0 && b < n }
	ok := true
	ps.Range(func(a, b int) bool {
		ok = inRange(a, b) && dt.EID(a) == dt.EID(b)
		return ok
	})
	if ok {
		return nil
	}
	for _, p := range ps.Pairs() {
		if !inRange(p.A, p.B) {
			return fmt.Errorf("relation: %s.%s order pair (%d,%d) out of range",
				dt.Schema.Name, dt.Schema.Attrs[ai], p.A, p.B)
		}
		if dt.EID(p.A) != dt.EID(p.B) {
			return fmt.Errorf("relation: %s.%s order pair (%s,%s) crosses entities",
				dt.Schema.Name, dt.Schema.Attrs[ai], dt.Label(p.A), dt.Label(p.B))
		}
	}
	return nil
}

// Clone deep-copies the temporal instance.
func (dt *TemporalInstance) Clone() *TemporalInstance {
	out := &TemporalInstance{Instance: dt.Instance.Clone()}
	out.Orders = make([]*order.PairSet, len(dt.Orders))
	for i, ps := range dt.Orders {
		if ps != nil {
			out.Orders[i] = ps.Clone()
		}
	}
	return out
}

// String renders the temporal instance with its partial orders.
func (dt *TemporalInstance) String() string {
	var b strings.Builder
	b.WriteString(dt.Instance.String())
	for _, ai := range dt.Schema.NonEIDIndexes() {
		ps := dt.Orders[ai]
		if ps == nil || ps.Len() == 0 {
			continue
		}
		var parts []string
		for _, p := range ps.Pairs() {
			parts = append(parts, fmt.Sprintf("%s < %s", dt.Label(p.A), dt.Label(p.B)))
		}
		fmt.Fprintf(&b, "  order %s: %s\n", dt.Schema.Attrs[ai], strings.Join(parts, ", "))
	}
	return b.String()
}

// Completion is a completed temporal instance: for every non-EID attribute
// the currency order is total on each entity group. It is represented by a
// rank per (attribute, tuple): within an entity group, ranks are a
// permutation of 0..k-1 and higher rank means more current.
type Completion struct {
	Base *TemporalInstance
	// Rank[ai][ti] is the rank of tuple ti in attribute ai's order within
	// ti's entity group. Entries for the EID attribute are unused.
	Rank [][]int
}

// NewCompletion allocates a completion shell with all ranks zero. Callers
// fill ranks via SetChain or direct assignment; Validate checks totality.
func NewCompletion(base *TemporalInstance) *Completion {
	rank := make([][]int, base.Schema.Arity())
	for _, ai := range base.Schema.NonEIDIndexes() {
		rank[ai] = make([]int, base.Len())
	}
	return &Completion{Base: base, Rank: rank}
}

// SetChain installs the total order given by chain (least current first)
// for attribute ai; chain must be a permutation of one entity group.
func (c *Completion) SetChain(ai int, chain []int) {
	for r, ti := range chain {
		c.Rank[ai][ti] = r
	}
}

// Less reports i ≺ j in attribute ai. It is meaningful only for tuples of
// the same entity; for distinct entities it returns false (incomparable).
func (c *Completion) Less(ai, i, j int) bool {
	if c.Base.EID(i) != c.Base.EID(j) {
		return false
	}
	return c.Rank[ai][i] < c.Rank[ai][j]
}

// Validate checks that the completion extends the base partial orders and
// is total on every entity group.
func (c *Completion) Validate() error {
	for _, ai := range c.Base.Schema.NonEIDIndexes() {
		for _, g := range c.Base.Entities() {
			seen := make([]bool, len(g.Members))
			for _, ti := range g.Members {
				r := c.Rank[ai][ti]
				if r < 0 || r >= len(g.Members) || seen[r] {
					return fmt.Errorf("relation: completion ranks of %s.%s entity %s are not a permutation",
						c.Base.Schema.Name, c.Base.Schema.Attrs[ai], g.EID)
				}
				seen[r] = true
			}
		}
		if ps := c.Base.Orders[ai]; ps != nil {
			for _, p := range ps.Pairs() {
				if !c.Less(ai, p.A, p.B) {
					return fmt.Errorf("relation: completion of %s.%s violates given pair %s ≺ %s",
						c.Base.Schema.Name, c.Base.Schema.Attrs[ai], c.Base.Label(p.A), c.Base.Label(p.B))
				}
			}
		}
	}
	return nil
}

// CurrentTupleIndex returns, for entity group g and attribute ai, the index
// of the most current tuple (greatest rank).
func (c *Completion) CurrentTupleIndex(g EntityGroup, ai int) int {
	best := g.Members[0]
	for _, ti := range g.Members[1:] {
		if c.Rank[ai][ti] > c.Rank[ai][best] {
			best = ti
		}
	}
	return best
}

// CurrentTuple assembles LST(e, Dct): the tuple holding, for every
// attribute, the entity's most current value under this completion.
func (c *Completion) CurrentTuple(g EntityGroup) Tuple {
	t := make(Tuple, c.Base.Schema.Arity())
	t[c.Base.Schema.EIDIndex] = g.EID
	for _, ai := range c.Base.Schema.NonEIDIndexes() {
		t[ai] = c.Base.Tuples[c.CurrentTupleIndex(g, ai)][ai]
	}
	return t
}

// CurrentInstance assembles LST(Dct): one current tuple per entity, in
// first-occurrence entity order. The result is a normal instance.
func (c *Completion) CurrentInstance() *Instance {
	out := NewInstance(c.Base.Schema)
	for _, g := range c.Base.Entities() {
		out.MustAdd(c.CurrentTuple(g))
	}
	return out
}

// EnumerateCompletions enumerates every completion of dt (the product of
// linear extensions over attributes and entity groups), invoking yield for
// each; yield returning false stops early. This is the brute-force oracle
// used in differential tests; it is exponential and intended for small
// instances only.
func EnumerateCompletions(dt *TemporalInstance, yield func(*Completion) bool) {
	attrs := dt.Schema.NonEIDIndexes()
	groups := dt.Entities()

	type cell struct {
		ai    int
		group EntityGroup
		exts  [][]int
	}
	var cells []cell
	for _, ai := range attrs {
		for _, g := range groups {
			var exts [][]int
			dt.Orders[ai].LinearExtensions(g.Members, func(ext []int) bool {
				exts = append(exts, append([]int(nil), ext...))
				return true
			})
			if len(exts) == 0 {
				return // cyclic base order: no completions
			}
			cells = append(cells, cell{ai, g, exts})
		}
	}

	comp := NewCompletion(dt)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(cells) {
			return yield(comp)
		}
		for _, ext := range cells[i].exts {
			comp.SetChain(cells[i].ai, ext)
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	rec(0)
}

// CountCompletions counts the completions of dt (product of linear-extension
// counts across attributes and entities).
func CountCompletions(dt *TemporalInstance) int {
	total := 1
	for _, ai := range dt.Schema.NonEIDIndexes() {
		for _, g := range dt.Entities() {
			total *= dt.Orders[ai].CountLinearExtensions(g.Members)
		}
	}
	return total
}

// SortedEntityGroups returns entity groups sorted by EID for deterministic
// output in reports.
func SortedEntityGroups(d *Instance) []EntityGroup {
	groups := d.Entities()
	sort.Slice(groups, func(i, j int) bool { return groups[i].EID.Less(groups[j].EID) })
	return groups
}
