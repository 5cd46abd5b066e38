// Package order provides strict-partial-order machinery over integer nodes:
// pair sets, transitive closure, cycle detection, and linear-extension
// enumeration. Currency orders in the paper are strict partial orders per
// attribute over the tuples of an entity; this package supplies the shared
// algorithmic substrate.
package order

import (
	"fmt"
	"sort"
)

// Pair is an ordered pair (A ≺ B): A is less current, B is more current.
type Pair struct {
	A, B int
}

// PairSet is a set of ordered pairs representing a binary relation over
// non-negative integer nodes (tuple positions, throughout this
// codebase). The representation is a dense adjacency index — succ[a]
// lists the direct successors of a — rather than a pair-keyed map:
// every traversal (Range, Pairs, Succ, the delta remap in spec) walks
// slices without hashing or sort-on-read, and membership probes scan
// the source's successor list, which per-entity currency orders keep
// short. The zero value is not ready; use NewPairSet.
type PairSet struct {
	succ [][]int // succ[a] = direct successors of a, insertion-ordered
	n    int     // pair count
}

// NewPairSet returns an empty pair set.
func NewPairSet() *PairSet { return &PairSet{} }

// succOf returns a's successor list, nil when a is out of range.
func (ps *PairSet) succOf(a int) []int {
	if a < 0 || a >= len(ps.succ) {
		return nil
	}
	return ps.succ[a]
}

// Add inserts the pair (a ≺ b). Adding an existing pair is a no-op.
// Reflexive pairs (a == b) are inserted as given; use HasCycle or
// IsStrictPartialOrder to detect them as violations.
func (ps *PairSet) Add(a, b int) {
	for _, x := range ps.succOf(a) {
		if x == b {
			return
		}
	}
	if a >= len(ps.succ) {
		if a < cap(ps.succ) {
			ps.succ = ps.succ[:a+1]
		} else {
			grown := make([][]int, a+1, 2*(a+1))
			copy(grown, ps.succ)
			ps.succ = grown
		}
	}
	ps.succ[a] = append(ps.succ[a], b)
	ps.n++
}

// Has reports whether (a ≺ b) is in the set.
func (ps *PairSet) Has(a, b int) bool {
	for _, x := range ps.succOf(a) {
		if x == b {
			return true
		}
	}
	return false
}

// Len returns the number of pairs.
func (ps *PairSet) Len() int { return ps.n }

// Succ returns the direct successors of node a (b with a ≺ b).
func (ps *PairSet) Succ(a int) []int { return ps.succOf(a) }

// Range calls f for every pair, stopping early when f returns false.
// Iteration is by ascending source node, successors in insertion order
// — no materialized pair slice, no sorting (compare Pairs).
func (ps *PairSet) Range(f func(a, b int) bool) {
	for a, ss := range ps.succ {
		for _, b := range ss {
			if !f(a, b) {
				return
			}
		}
	}
}

// Pairs returns all pairs sorted by (A, B) for deterministic iteration.
// Prefer Range when order does not matter.
func (ps *PairSet) Pairs() []Pair {
	out := make([]Pair, 0, ps.n)
	ps.Range(func(a, b int) bool {
		out = append(out, Pair{a, b})
		return true
	})
	// Sources arrive ascending; only successors within a source need
	// ordering.
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Clone returns a deep copy.
func (ps *PairSet) Clone() *PairSet {
	out := &PairSet{succ: make([][]int, len(ps.succ)), n: ps.n}
	for a, ss := range ps.succ {
		if len(ss) > 0 {
			out.succ[a] = append([]int(nil), ss...)
		}
	}
	return out
}

// AddAll inserts every pair of other into ps.
func (ps *PairSet) AddAll(other *PairSet) {
	other.Range(func(a, b int) bool {
		ps.Add(a, b)
		return true
	})
}

// ContainedIn reports whether every pair of ps occurs in other.
func (ps *PairSet) ContainedIn(other *PairSet) bool {
	ok := true
	ps.Range(func(a, b int) bool {
		ok = other.Has(a, b)
		return ok
	})
	return ok
}

// Equal reports set equality.
func (ps *PairSet) Equal(other *PairSet) bool {
	return ps.Len() == other.Len() && ps.ContainedIn(other)
}

// nodeBound returns one more than the largest node any pair mentions: the
// length of a node-indexed slice that covers every source and every
// target, including a node that appears only as a target.
func (ps *PairSet) nodeBound() int {
	n := len(ps.succ)
	for _, ss := range ps.succ {
		for _, b := range ss {
			if b >= n {
				n = b + 1
			}
		}
	}
	return n
}

// TransitiveClosure returns the transitive closure of the relation. The
// closure of a relation with a directed cycle contains reflexive pairs;
// callers detect inconsistency via HasCycle on the result. Each source's
// successor list is its direct successors in insertion order followed by
// the nodes it reaches only transitively, in depth-first discovery order.
func (ps *PairSet) TransitiveClosure() *PairSet {
	out := &PairSet{succ: make([][]int, len(ps.succ))}
	// seen[n] == src+1 marks n as already listed for src, so the marks
	// never need clearing between sources.
	seen := make([]int, ps.nodeBound())
	var reach, stack []int
	for src, direct := range ps.succ {
		if len(direct) == 0 {
			continue
		}
		mark := src + 1
		reach = append(reach[:0], direct...)
		for _, n := range direct {
			seen[n] = mark
		}
		stack = append(stack[:0], direct...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, m := range ps.succOf(n) {
				if seen[m] != mark {
					seen[m] = mark
					reach = append(reach, m)
					stack = append(stack, m)
				}
			}
		}
		out.succ[src] = append([]int(nil), reach...)
		out.n += len(reach)
	}
	return out
}

// HasCycle reports whether the relation's transitive closure contains a
// reflexive pair, i.e., whether the underlying directed graph has a cycle
// (including self-loops).
func (ps *PairSet) HasCycle() bool {
	// A fresh Checker at base 0 reads every zero mark as "white, in the
	// group", so all sources form one group. The marks cover the sources
	// only: a node that is never a source has no successors, lies on no
	// cycle, and the bounds test in Checker.in leaves it outside.
	c := Checker{mark: make([]int, len(ps.succ))}
	for a := range ps.succ {
		if c.mark[a] == c.base && c.cyclicFrom(ps, a) {
			return true
		}
	}
	return false
}

// IsStrictPartialOrderOn verifies that the relation, restricted to nodes,
// is irreflexive and acyclic (and hence extends to a strict partial order
// by transitive closure). It returns a descriptive error otherwise:
// pairs leaving nodes are ignored, and a reflexive pair (the smallest
// such node) is reported before a cycle. To check many groups of one
// relation, use a Checker.
func (ps *PairSet) IsStrictPartialOrderOn(nodes []int) error {
	var c Checker
	return c.Check(ps, nodes)
}

// A Checker runs IsStrictPartialOrderOn over many node groups with one
// slice of node-indexed marks. Marks are stamped per group, so nothing is
// cleared between groups, and checking disjoint groups costs time linear
// in their total size plus the pairs leaving their members, however the
// nodes split into groups. The marks grow to the largest node seen. The
// zero value is ready to use; a Checker is not safe for concurrent use.
type Checker struct {
	// mark[n] is base, base+1 or base+2 (white, grey, black) while n is
	// in the group being checked, and below base otherwise.
	mark  []int
	base  int
	stack []frame
}

// frame is one depth-first search level: a node and the index of its
// next successor to visit.
type frame struct{ node, next int }

// Check reports whether ps restricted to nodes is irreflexive and
// acyclic, with IsStrictPartialOrderOn's result and error text. A nil
// ps is the empty relation.
func (c *Checker) Check(ps *PairSet, nodes []int) error {
	if ps == nil || ps.n == 0 {
		return nil
	}
	c.enter(nodes)
	refl := -1
	for _, a := range nodes {
		if (refl < 0 || a < refl) && ps.Has(a, a) {
			refl = a
		}
	}
	if refl >= 0 {
		return fmt.Errorf("order: reflexive pair %d ≺ %d", refl, refl)
	}
	for _, a := range nodes {
		if c.in(a) && c.mark[a] == c.base && c.cyclicFrom(ps, a) {
			return fmt.Errorf("order: relation contains a cycle")
		}
	}
	return nil
}

// enter starts a new group: it grows the marks to cover nodes, moves base
// past every earlier stamp and marks each member white.
func (c *Checker) enter(nodes []int) {
	hi := -1
	for _, a := range nodes {
		hi = max(hi, a)
	}
	if hi >= len(c.mark) {
		grown := make([]int, max(hi+1, 2*len(c.mark)))
		copy(grown, c.mark)
		c.mark = grown
	}
	c.base += 3
	for _, a := range nodes {
		if a >= 0 {
			c.mark[a] = c.base
		}
	}
}

// in reports whether n belongs to the group being checked.
func (c *Checker) in(n int) bool {
	return uint(n) < uint(len(c.mark)) && c.mark[n] >= c.base
}

// cyclicFrom runs an iterative colour DFS from the white node root over
// the successors inside the group, reporting whether it meets a grey
// node (a back edge, self-loops included).
func (c *Checker) cyclicFrom(ps *PairSet, root int) bool {
	white, grey, black := c.base, c.base+1, c.base+2
	c.mark[root] = grey
	stack := append(c.stack[:0], frame{node: root})
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		succ := ps.succOf(top.node)
		if top.next == len(succ) {
			c.mark[top.node] = black
			stack = stack[:len(stack)-1]
			continue
		}
		m := succ[top.next]
		top.next++
		if !c.in(m) {
			continue
		}
		switch c.mark[m] {
		case grey:
			c.stack = stack
			return true
		case white:
			c.mark[m] = grey
			stack = append(stack, frame{node: m})
		}
	}
	c.stack = stack
	return false
}

// LinearExtensions enumerates every linear extension of the relation
// restricted to nodes, i.e., every permutation of nodes compatible with the
// given pairs, least-current first. It returns nil if the restriction is
// cyclic. The callback receives each extension; returning false stops the
// enumeration early. The slice passed to the callback is reused; callers
// must copy it if they retain it.
func (ps *PairSet) LinearExtensions(nodes []int, yield func(ext []int) bool) {
	n := len(nodes)
	pos := make(map[int]int, n)
	for i, node := range nodes {
		pos[node] = i
	}
	// indegree within the restriction
	indeg := make([]int, n)
	succ := make([][]int, n)
	ps.Range(func(a, b int) bool {
		ai, aok := pos[a]
		bi, bok := pos[b]
		if aok && bok {
			succ[ai] = append(succ[ai], bi)
			indeg[bi]++
		}
		return true
	})
	ext := make([]int, 0, n)
	used := make([]bool, n)
	var rec func() bool
	rec = func() bool {
		if len(ext) == n {
			return yield(ext)
		}
		for i := 0; i < n; i++ {
			if used[i] || indeg[i] != 0 {
				continue
			}
			used[i] = true
			for _, j := range succ[i] {
				indeg[j]--
			}
			ext = append(ext, nodes[i])
			if !rec() {
				return false
			}
			ext = ext[:len(ext)-1]
			for _, j := range succ[i] {
				indeg[j]++
			}
			used[i] = false
		}
		return true
	}
	rec()
}

// CountLinearExtensions counts the linear extensions of the relation
// restricted to nodes (0 if the restriction is cyclic).
func (ps *PairSet) CountLinearExtensions(nodes []int) int {
	count := 0
	ps.LinearExtensions(nodes, func([]int) bool {
		count++
		return true
	})
	return count
}
