package relation

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"currency/internal/order"
)

// referenceValidate is the quadratic TemporalInstance.Validate that the
// linear one replaced, kept as the reference for its verdicts and error
// text: per attribute, a sorted scan for out-of-range and crossing pairs,
// then, per entity group, a restricted copy of the relation checked for a
// reflexive pair and then for a cycle.
func referenceValidate(dt *TemporalInstance) error {
	for _, ai := range dt.Schema.NonEIDIndexes() {
		ps := dt.Orders[ai]
		if ps == nil {
			continue
		}
		for _, p := range ps.Pairs() {
			if p.A < 0 || p.A >= dt.Len() || p.B < 0 || p.B >= dt.Len() {
				return fmt.Errorf("relation: %s.%s order pair (%d,%d) out of range",
					dt.Schema.Name, dt.Schema.Attrs[ai], p.A, p.B)
			}
			if dt.EID(p.A) != dt.EID(p.B) {
				return fmt.Errorf("relation: %s.%s order pair (%s,%s) crosses entities",
					dt.Schema.Name, dt.Schema.Attrs[ai], dt.Label(p.A), dt.Label(p.B))
			}
		}
		for _, g := range dt.Entities() {
			if err := referenceStrictOn(ps, g.Members); err != nil {
				return fmt.Errorf("relation: %s.%s on entity %s: %w",
					dt.Schema.Name, dt.Schema.Attrs[ai], g.EID, err)
			}
		}
	}
	return nil
}

// referenceStrictOn restricts ps to nodes by copying the pairs with both
// endpoints inside, reports the first reflexive pair in (source,
// insertion) order, and otherwise runs a map-coloured DFS for a cycle.
func referenceStrictOn(ps *order.PairSet, nodes []int) error {
	in := make(map[int]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	sub := order.NewPairSet()
	ps.Range(func(a, b int) bool {
		if in[a] && in[b] {
			sub.Add(a, b)
		}
		return true
	})
	refl := -1
	sub.Range(func(a, b int) bool {
		if a == b {
			refl = a
			return false
		}
		return true
	})
	if refl >= 0 {
		return fmt.Errorf("order: reflexive pair %d ≺ %d", refl, refl)
	}
	colour := make(map[int]int)
	var visit func(n int) bool
	visit = func(n int) bool {
		colour[n] = 1
		for _, m := range sub.Succ(n) {
			if colour[m] == 1 || (colour[m] == 0 && visit(m)) {
				return true
			}
		}
		colour[n] = 2
		return false
	}
	cyclic := false
	sub.Range(func(a, _ int) bool {
		cyclic = colour[a] == 0 && visit(a)
		return !cyclic
	})
	if cyclic {
		return fmt.Errorf("order: relation contains a cycle")
	}
	return nil
}

// validateKind names the error class of a Validate result.
func validateKind(err error) string {
	if err == nil {
		return "valid"
	}
	for _, k := range []string{"out of range", "crosses entities", "reflexive pair", "contains a cycle"} {
		if strings.Contains(err.Error(), k) {
			return k
		}
	}
	return err.Error()
}

// randomInstance builds a temporal instance of up to 14 tuples over up to
// four interleaved entities, with same-entity pairs that follow a hidden
// ranking per attribute (so they alone are acyclic), and then injects
// faults behind AddOrder's back, each with its own probability: a
// self-loop, an in-entity back edge (a cycle when the forward path
// exists), a pair across entities and a pair out of range.
func randomInstance(rng *rand.Rand) *TemporalInstance {
	attrs := []string{"eid"}
	for k := rng.Intn(3); k >= 0; k-- {
		attrs = append(attrs, fmt.Sprintf("A%d", len(attrs)-1))
	}
	dt := NewTemporal(MustSchema("R", attrs...))
	nt, ne := 1+rng.Intn(14), 1+rng.Intn(4)
	for i := 0; i < nt; i++ {
		t := Tuple{S(fmt.Sprintf("e%d", rng.Intn(ne)))}
		for range attrs[1:] {
			t = append(t, I(int64(rng.Intn(3))))
		}
		if rng.Intn(2) == 0 {
			dt.MustAdd(t)
		} else if _, err := dt.AddLabeled(fmt.Sprintf("t%d", i), t); err != nil {
			panic(err)
		}
	}
	groups := dt.Entities()
	for _, ai := range dt.Schema.NonEIDIndexes() {
		if rng.Intn(20) == 0 {
			dt.Orders[ai] = nil
			continue
		}
		ps := dt.Orders[ai]
		rank := rng.Perm(nt)
		for _, g := range groups {
			for _, i := range g.Members {
				for _, j := range g.Members {
					if rank[i] < rank[j] && rng.Intn(5) < 2 {
						ps.Add(i, j)
					}
				}
			}
		}
		if rng.Intn(8) == 0 {
			i := rng.Intn(nt)
			ps.Add(i, i)
		}
		if g := groups[rng.Intn(len(groups))]; len(g.Members) > 1 && rng.Intn(3) == 0 {
			i, j := g.Members[rng.Intn(len(g.Members))], g.Members[rng.Intn(len(g.Members))]
			if rank[i] > rank[j] {
				i, j = j, i
			}
			if i != j {
				ps.Add(j, i)
			}
		}
		if i, j := rng.Intn(nt), rng.Intn(nt); dt.EID(i) != dt.EID(j) && rng.Intn(8) == 0 {
			ps.Add(i, j)
		}
		if rng.Intn(10) == 0 {
			if rng.Intn(2) == 0 {
				ps.Add(rng.Intn(nt), nt+rng.Intn(2))
			} else {
				ps.Add(nt+rng.Intn(2), rng.Intn(nt))
			}
		}
	}
	return dt
}

// TestValidateMatchesReference holds the linear Validate to the reference
// verdict and error text on random instances with injected faults of
// every kind.
func TestValidateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := make(map[string]int)
	for iter := 0; iter < 6000; iter++ {
		dt := randomInstance(rng)
		got, want := dt.Validate(), referenceValidate(dt)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iter %d: Validate = %v, reference = %v\n%s", iter, got, want, dt)
		}
		kinds[validateKind(want)]++
	}
	for _, k := range []string{"valid", "out of range", "crosses entities", "reflexive pair", "contains a cycle"} {
		if kinds[k] == 0 {
			t.Errorf("no instance hit %q: %v", k, kinds)
		}
	}
	t.Logf("verdicts: %v", kinds)
}

// fuzzInstance decodes data into a temporal instance. The first byte
// sets the tuple count (1–16) and the number of non-EID attributes
// (1–3); one byte per tuple then picks its entity (of four, low bits)
// and whether it carries a label (bit 7); every following byte triple is
// one pair (attribute, a, b) added straight to the pair set, with a in
// [0, n+2) and b in [-1, n+2), so that out-of-range pairs occur.
func fuzzInstance(data []byte) *TemporalInstance {
	if len(data) == 0 {
		return nil
	}
	nt, na := 1+int(data[0]%16), 1+int(data[0]/16%3)
	data = data[1:]
	attrs := []string{"eid"}
	for k := 0; k < na; k++ {
		attrs = append(attrs, fmt.Sprintf("A%d", k))
	}
	dt := NewTemporal(MustSchema("R", attrs...))
	for i := 0; i < nt; i++ {
		var b byte
		if i < len(data) {
			b = data[i]
		}
		t := Tuple{S(fmt.Sprintf("e%d", b%4))}
		for k := 0; k < na; k++ {
			t = append(t, I(int64(i)))
		}
		if b&0x80 != 0 {
			if _, err := dt.AddLabeled(fmt.Sprintf("t%d", i), t); err != nil {
				panic(err)
			}
		} else {
			dt.MustAdd(t)
		}
	}
	data = data[min(nt, len(data)):]
	nonEID := dt.Schema.NonEIDIndexes()
	for ; len(data) >= 3; data = data[3:] {
		ai := nonEID[int(data[0])%len(nonEID)]
		dt.Orders[ai].Add(int(data[1])%(nt+2), int(data[2])%(nt+3)-1)
	}
	return dt
}

// FuzzValidate compares Validate with the reference on instances decoded
// from arbitrary bytes. CI runs it on a short budget; the seed corpus
// lives under testdata/fuzz/FuzzValidate.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{0x13, 0, 0, 1, 0, 1, 2, 0, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		dt := fuzzInstance(data)
		if dt == nil {
			return
		}
		if got, want := dt.Validate(), referenceValidate(dt); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Validate = %v, reference = %v (input %x)", got, want, data)
		}
	})
}
