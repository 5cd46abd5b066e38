package order

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPairSetBasics(t *testing.T) {
	ps := NewPairSet()
	ps.Add(1, 2)
	ps.Add(1, 2)
	ps.Add(2, 3)
	if ps.Len() != 2 {
		t.Fatalf("Len = %d", ps.Len())
	}
	if !ps.Has(1, 2) || ps.Has(2, 1) {
		t.Error("Has misreports")
	}
	pairs := ps.Pairs()
	if len(pairs) != 2 || pairs[0] != (Pair{1, 2}) || pairs[1] != (Pair{2, 3}) {
		t.Errorf("Pairs = %v", pairs)
	}
	clone := ps.Clone()
	clone.Add(5, 6)
	if ps.Has(5, 6) {
		t.Error("Clone shares storage")
	}
	other := NewPairSet()
	other.Add(1, 2)
	if !other.ContainedIn(ps) || ps.ContainedIn(other) {
		t.Error("ContainedIn misreports")
	}
	other.Add(2, 3)
	if !ps.Equal(other) {
		t.Error("Equal misreports")
	}
}

func TestTransitiveClosure(t *testing.T) {
	ps := NewPairSet()
	ps.Add(1, 2)
	ps.Add(2, 3)
	ps.Add(3, 4)
	tc := ps.TransitiveClosure()
	for _, want := range []Pair{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}} {
		if !tc.Has(want.A, want.B) {
			t.Errorf("closure misses %v", want)
		}
	}
	if tc.Len() != 6 {
		t.Errorf("closure has %d pairs, want 6", tc.Len())
	}
}

// TestClosureIdempotent property-checks closure(closure(R)) == closure(R)
// and R ⊆ closure(R) on random DAG-ish relations.
func TestClosureIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ps := NewPairSet()
		n := 2 + rng.Intn(6)
		for k := 0; k < n*2; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b { // keep it acyclic
				ps.Add(a, b)
			}
		}
		tc := ps.TransitiveClosure()
		return ps.ContainedIn(tc) && tc.Equal(tc.TransitiveClosure())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestHasCycle(t *testing.T) {
	ps := NewPairSet()
	ps.Add(1, 2)
	ps.Add(2, 3)
	if ps.HasCycle() {
		t.Error("acyclic relation reported cyclic")
	}
	ps.Add(3, 1)
	if !ps.HasCycle() {
		t.Error("cycle missed")
	}
	self := NewPairSet()
	self.Add(4, 4)
	if !self.HasCycle() {
		t.Error("self-loop missed")
	}
}

func TestIsStrictPartialOrderOn(t *testing.T) {
	ps := NewPairSet()
	ps.Add(1, 2)
	ps.Add(2, 3)
	if err := ps.IsStrictPartialOrderOn([]int{1, 2, 3}); err != nil {
		t.Error(err)
	}
	ps.Add(3, 1)
	if err := ps.IsStrictPartialOrderOn([]int{1, 2, 3}); err == nil {
		t.Error("cycle accepted")
	}
	// The cycle lies outside the restriction.
	if err := ps.IsStrictPartialOrderOn([]int{1, 2}); err != nil {
		t.Error(err)
	}
}

func TestLinearExtensions(t *testing.T) {
	ps := NewPairSet()
	ps.Add(0, 1) // 0 before 1; 2 free
	var exts [][]int
	ps.LinearExtensions([]int{0, 1, 2}, func(e []int) bool {
		exts = append(exts, append([]int(nil), e...))
		return true
	})
	if len(exts) != 3 {
		t.Fatalf("%d extensions, want 3", len(exts))
	}
	for _, e := range exts {
		pos := map[int]int{}
		for i, n := range e {
			pos[n] = i
		}
		if pos[0] > pos[1] {
			t.Errorf("extension %v violates 0<1", e)
		}
	}
	if got := ps.CountLinearExtensions([]int{0, 1, 2}); got != 3 {
		t.Errorf("CountLinearExtensions = %d", got)
	}
	// Cyclic restriction yields no extensions.
	cyc := NewPairSet()
	cyc.Add(0, 1)
	cyc.Add(1, 0)
	if got := cyc.CountLinearExtensions([]int{0, 1}); got != 0 {
		t.Errorf("cyclic extensions = %d", got)
	}
	// Empty relation on n nodes yields n! extensions.
	empty := NewPairSet()
	if got := empty.CountLinearExtensions([]int{0, 1, 2, 3}); got != 24 {
		t.Errorf("4! = %d", got)
	}
}

// TestLinearExtensionCountFormula property-checks a chain of length k
// among n free elements: count = n!/k!.
func TestLinearExtensionCountFormula(t *testing.T) {
	fact := func(n int) int {
		out := 1
		for i := 2; i <= n; i++ {
			out *= i
		}
		return out
	}
	for n := 1; n <= 5; n++ {
		for k := 1; k <= n; k++ {
			ps := NewPairSet()
			nodes := make([]int, n)
			for i := range nodes {
				nodes[i] = i
			}
			for i := 0; i+1 < k; i++ {
				ps.Add(i, i+1)
			}
			want := fact(n) / fact(k)
			if got := ps.CountLinearExtensions(nodes); got != want {
				t.Errorf("n=%d k=%d: %d extensions, want %d", n, k, got, want)
			}
		}
	}
}

// TestExtensionsRespectAllPairs property-checks that every enumerated
// extension respects every closed pair.
func TestExtensionsRespectAllPairs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		ps := NewPairSet()
		for k := 0; k < n; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a < b {
				ps.Add(a, b)
			}
		}
		nodes := make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
		closed := ps.TransitiveClosure()
		ok := true
		ps.LinearExtensions(nodes, func(e []int) bool {
			pos := make(map[int]int, len(e))
			for i, node := range e {
				pos[node] = i
			}
			for _, p := range closed.Pairs() {
				if pos[p.A] > pos[p.B] {
					ok = false
					return false
				}
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// refClosure and refCyclic are map-based reference kernels: reach sets
// by plain DFS, and a colour DFS over every mentioned node.
func refClosure(ps *PairSet) map[Pair]bool {
	out := make(map[Pair]bool)
	ps.Range(func(a, _ int) bool {
		seen := make(map[int]bool)
		stack := append([]int(nil), ps.Succ(a)...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			out[Pair{a, n}] = true
			stack = append(stack, ps.Succ(n)...)
		}
		return true
	})
	return out
}

func refCyclic(ps *PairSet, in func(int) bool) bool {
	colour := make(map[int]int)
	var visit func(n int) bool
	visit = func(n int) bool {
		colour[n] = 1
		for _, m := range ps.Succ(n) {
			if !in(m) {
				continue
			}
			if colour[m] == 1 || (colour[m] == 0 && visit(m)) {
				return true
			}
		}
		colour[n] = 2
		return false
	}
	cyclic := false
	ps.Range(func(a, b int) bool {
		for _, n := range []int{a, b} {
			if in(n) && colour[n] == 0 && visit(n) {
				cyclic = true
			}
		}
		return !cyclic
	})
	return cyclic
}

// TestKernelsMatchReference checks TransitiveClosure, HasCycle and a
// Checker shared across groups against the reference kernels on random
// relations, including nodes that appear only as targets beyond every
// source (node-indexed marks must cover the largest node) and pairs that
// leave their group.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	verdicts := make(map[string]int)
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(12)
		ps := NewPairSet()
		for k := rng.Intn(3 * n); k > 0; k-- {
			a, b := rng.Intn(n), rng.Intn(n+4) // b >= n: target only
			if rng.Intn(4) != 0 && a >= b {
				continue // mostly acyclic, so both verdicts occur
			}
			ps.Add(a, b)
		}
		want := refClosure(ps)
		tc := ps.TransitiveClosure()
		if tc.Len() != len(want) {
			t.Fatalf("iter %d: closure has %d pairs, want %d", iter, tc.Len(), len(want))
		}
		for p := range want {
			if !tc.Has(p.A, p.B) {
				t.Fatalf("iter %d: closure misses %v", iter, p)
			}
		}
		all := func(int) bool { return true }
		if got, want := ps.HasCycle(), refCyclic(ps, all); got != want {
			t.Fatalf("iter %d: HasCycle = %v, want %v (%v)", iter, got, want, ps.Pairs())
		}
		// Split 0..n+3 into random groups and check them with one Checker.
		groupOf := make([]int, n+4)
		groups := make([][]int, 1+rng.Intn(3))
		for v := range groupOf {
			groupOf[v] = rng.Intn(len(groups))
			groups[groupOf[v]] = append(groups[groupOf[v]], v)
		}
		var chk Checker
		for gi, g := range groups {
			in := func(v int) bool { return v >= 0 && v < len(groupOf) && groupOf[v] == gi }
			// Check sees the members in random order; the reflexive
			// pair it reports must still be the smallest.
			shuffled := append([]int(nil), g...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			err := chk.Check(ps, shuffled)
			var wantErr error
			kind := "ok"
			for _, v := range g {
				if ps.Has(v, v) {
					wantErr = fmt.Errorf("order: reflexive pair %d ≺ %d", v, v)
					kind = "reflexive"
					break
				}
			}
			if wantErr == nil && refCyclic(ps, in) {
				wantErr = fmt.Errorf("order: relation contains a cycle")
				kind = "cycle"
			}
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("iter %d group %v: Check = %v, want %v (%v)", iter, g, err, wantErr, ps.Pairs())
			}
			verdicts[kind]++
		}
	}
	if len(verdicts) != 3 {
		t.Errorf("verdicts %v: want ok, reflexive and cycle all to occur", verdicts)
	}
}
