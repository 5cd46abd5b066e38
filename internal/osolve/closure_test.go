package osolve

// Closure-kernel differential layer: closeEdge against the direct triple
// loop over the block's matrix, kept here as the reference. The kernel
// must return the same implied pairs in the same order, and the same
// cycle endpoint, on every block size — both sides of the small-block
// threshold (closeListMin) and both sides of a word boundary — and on
// every kind of state the engine reaches: base spans copied by
// scopedClone, closed states after propagate, states unwound by undoTo,
// and states whose closure is still pending (which is where cycles
// through a new edge come from).

import (
	"fmt"
	"math/rand"
	"testing"

	"currency/internal/relation"
	"currency/internal/spec"
)

// refCloseEdge is the direct closure step: predecessors of i found by
// striding down column i, successors of j by reading row j, and every
// (p, s) pair visited in p-major order. On a cycle it reports the first
// p == s and no pairs, since both propagators drop the pending pairs on
// a conflict.
func refCloseEdge(sv *Solver, st *state, id int32) ([]int32, int32) {
	bi := sv.litBlk[id]
	off := sv.litOff[bi]
	n := sv.blockN[bi]
	rem := id - off
	i, j := rem/n, rem%n
	row := st.a[off : off+n*n]
	var out []int32
	for p := int32(0); p < n; p++ {
		if p != i && row[p*n+i] != less {
			continue
		}
		for s := int32(0); s < n; s++ {
			if s != j && row[j*n+s] != less {
				continue
			}
			if p == s {
				return nil, off + p*n + p
			}
			if row[p*n+s] != less {
				out = append(out, off+p*n+s)
			}
		}
	}
	return out, -1
}

// chainSolver grounds one relation R(eid, A) holding a single entity of n
// tuples whose given order on A is a random subset of the consecutive
// pairs of a random permutation; perm is that permutation.
func chainSolver(t *testing.T, rng *rand.Rand, n int) (sv *Solver, perm []int) {
	t.Helper()
	dt := relation.NewTemporal(relation.MustSchema("R", "eid", "A"))
	for k := 0; k < n; k++ {
		dt.MustAdd(relation.Tuple{relation.S("e"), relation.I(int64(k))})
	}
	perm = rng.Perm(n)
	for k := 0; k+1 < n; k++ {
		if rng.Intn(4) == 0 {
			dt.MustAddOrder("A", perm[k], perm[k+1])
		}
	}
	s := spec.New()
	s.MustAddRelation(dt)
	return newOrDie(t, s), perm
}

// kernelStats counts what a differential run exercised.
type kernelStats struct{ edges, cycles, implied int }

// checkKernel compares closeEdge with the reference on st for up to
// limit unknown pairs of block bi, each set the way propagate sets it
// (the pair less, its inverse greater) and then restored. The kernel's
// pairs must follow whatever out already holds, and a cycle must leave
// out as it was.
func checkKernel(t *testing.T, tag string, sv *Solver, st *state, bi int, rng *rand.Rand, limit int, ks *kernelStats) {
	t.Helper()
	lo, hi := sv.span(bi)
	n := sv.blockN[bi]
	ids := rng.Perm(int(hi - lo))
	tried := 0
	for _, r := range ids {
		id := lo + int32(r)
		if tried == limit {
			break
		}
		if i, j := int32(r)/n, int32(r)%n; i == j || st.a[id] != unknown {
			continue
		}
		tried++
		inv := sv.litInv[id]
		st.a[id], st.a[inv] = less, greater
		want, wantCycle := refCloseEdge(sv, st, id)
		got, gotCycle := sv.closeEdge(st, id, []int32{-7})
		st.a[id], st.a[inv] = unknown, unknown

		ks.edges++
		if gotCycle != wantCycle {
			t.Fatalf("%s: edge %d: cycle %d, reference %d", tag, id, gotCycle, wantCycle)
		}
		if len(got) == 0 || got[0] != -7 {
			t.Fatalf("%s: edge %d: kernel overwrote its output prefix: %v", tag, id, got)
		}
		if wantCycle >= 0 {
			ks.cycles++
			if len(got) != 1 {
				t.Fatalf("%s: edge %d: cycle appended pairs %v", tag, id, got[1:])
			}
			continue
		}
		if fmt.Sprint(got[1:]) != fmt.Sprint(want) {
			t.Fatalf("%s: edge %d: implied %v, reference %v", tag, id, got[1:], want)
		}
		ks.implied += len(want)
	}
}

// TestCloseEdgeMatchesReference runs the differential over every state
// kind on block sizes around the small-block threshold and word
// boundaries, and checks that both outcomes (implied pairs and cycles)
// were exercised.
func TestCloseEdgeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var ks kernelStats
	for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 37, 63, 64, 65} {
		for rep := 0; rep < 3; rep++ {
			sv, perm := chainSolver(t, rng, n)
			if n == 1 {
				// A one-tuple entity has no pair to order: no block, no
				// literal, nothing for the kernel to close.
				if sv.numLits != 0 {
					t.Fatalf("n=1: %d literals, want none", sv.numLits)
				}
				continue
			}
			lit, _, err := sv.LitFor("R", "A", 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			bi := lit.Block
			lo, _ := sv.span(bi)
			nn := int32(n)
			rank := make([]int, n)
			for k, m := range perm {
				rank[m] = k
			}
			pair := func(i, j int) int32 { return lo + int32(i)*nn + int32(j) }
			tag := func(kind string) string { return fmt.Sprintf("n=%d rep=%d %s", n, rep, kind) }

			// Base span copied by scopedClone: closed, given orders only.
			st := sv.scopedClone([]int{sv.compOf[bi]})
			checkKernel(t, tag("scoped clone"), sv, st, bi, rng, 64, &ks)

			// Closed states: propagate assertions consistent with perm,
			// checking after each, then unwind to an earlier mark.
			var marks []int
			for step := 0; step < 4; step++ {
				marks = append(marks, st.mark())
				for k := 0; k < 1+n/4; k++ {
					i, j := rng.Intn(n), rng.Intn(n)
					if i == j {
						continue
					}
					if rank[i] > rank[j] {
						i, j = j, i
					}
					st.q = append(st.q, pair(i, j))
				}
				if !sv.propagate(st) {
					t.Fatalf("%s: consistent assertions conflicted", tag("propagate"))
				}
				checkKernel(t, tag("propagated"), sv, st, bi, rng, 32, &ks)
			}
			sv.undoTo(st, marks[1+rng.Intn(len(marks)-1)])
			checkKernel(t, tag("undone"), sv, st, bi, rng, 32, &ks)

			// Pending closure: raw edges set without propagation, some
			// against perm, so a new edge can close a cycle.
			mark := st.mark()
			for k := 0; k < 2*n; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if id := pair(i, j); i != j && st.a[id] == unknown {
					st.a[id], st.a[sv.litInv[id]] = less, greater
					st.trail = append(st.trail, id)
				}
			}
			checkKernel(t, tag("raw"), sv, st, bi, rng, 64, &ks)
			sv.undoTo(st, mark+(st.mark()-mark)/2)
			checkKernel(t, tag("raw undone"), sv, st, bi, rng, 32, &ks)
			sv.putState(st)
		}
	}
	if ks.cycles == 0 || ks.implied == 0 {
		t.Fatalf("differential exercised %d edges, %d cycles, %d implied pairs: want both outcomes", ks.edges, ks.cycles, ks.implied)
	}
	t.Logf("%d edges, %d cycles, %d implied pairs", ks.edges, ks.cycles, ks.implied)
}
