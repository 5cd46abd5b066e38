package osolve

import (
	"encoding/binary"
	"sort"
	"strings"

	"currency/internal/relation"
	"currency/internal/spec"
)

// CurrentDB is a set of current instances, one per relation, keyed by
// relation name: the LST(Dc) of some consistent completion.
type CurrentDB map[string]*relation.Instance

// Key canonically encodes the current database for deduplication.
func (db CurrentDB) Key() string {
	names := make([]string, 0, len(db))
	for n := range db {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = db[n].Key()
	}
	return strings.Join(parts, "&")
}

// maxAssumptions returns the literals forcing member position m to be the
// greatest element of block bi.
func (sv *Solver) maxAssumptions(bi, m int) []Lit {
	b := sv.blocks[bi]
	out := make([]Lit, 0, len(b.Members)-1)
	for p := range b.Members {
		if p != m {
			out = append(out, Lit{Block: bi, I: p, J: m})
		}
	}
	return out
}

// pushMaxAssumptions seeds st.q with the literal IDs forcing member
// position m to be the greatest element of block bi — the ID-level
// equivalent of maxAssumptions for in-place enumeration.
func (sv *Solver) pushMaxAssumptions(st *state, bi, m int) {
	off, n := sv.litOff[bi], sv.blockN[bi]
	for p := int32(0); p < n; p++ {
		if p != int32(m) {
			st.q = append(st.q, off+p*n+int32(m))
		}
	}
}

// PossibleMaxTuples returns the tuple indices that are the most current
// tuple of block bi in at least one consistent completion.
func (sv *Solver) PossibleMaxTuples(bi int) []int {
	b := sv.blocks[bi]
	var out []int
	for m, ti := range b.Members {
		if sv.SatWith(sv.maxAssumptions(bi, m)) {
			out = append(out, ti)
		}
	}
	return out
}

// EnumerateCurrentDBs enumerates the distinct current databases
// { LST(Dc) : Dc ∈ Mod(S) }, sorted by Key. It collects WalkCurrentDBs;
// see there for the walk and for what projecting onto rels means.
//
// limit > 0 caps the number of distinct results; the second return value
// reports whether the enumeration was exhaustive (always true when limit
// was not reached). An inconsistent specification yields no results.
func (sv *Solver) EnumerateCurrentDBs(limit int, rels ...string) ([]CurrentDB, bool) {
	dbs, complete, _ := sv.EnumerateCurrentDBsBudget(limit, Budget{}, rels...)
	return dbs, complete
}

// EnumerateCurrentDBsBudget is EnumerateCurrentDBs under an effort
// budget: a tripped budget returns the partial result set with
// complete=false and a non-nil error matching ErrInterrupted. The
// partial set is sound (every returned database is a real current
// database) but not complete.
func (sv *Solver) EnumerateCurrentDBsBudget(limit int, b Budget, rels ...string) ([]CurrentDB, bool, error) {
	var out []CurrentDB
	complete, err := sv.WalkCurrentDBs(b, rels, func(db CurrentDB) bool {
		out = append(out, db)
		return limit <= 0 || len(out) < limit
	})
	keys := make([]string, len(out))
	for i, db := range out {
		keys[i] = db.Key()
	}
	sort.Sort(keyedDBs{keys: keys, dbs: out})
	return out, complete, err
}

type keyedDBs struct {
	keys []string
	dbs  []CurrentDB
}

func (k keyedDBs) Len() int           { return len(k.keys) }
func (k keyedDBs) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyedDBs) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.dbs[i], k.dbs[j] = k.dbs[j], k.dbs[i]
}

// WalkCurrentDBs streams the distinct current databases
// { LST(Dc) : Dc ∈ Mod(S) } to yield, each once, in walk order. The walk
// branches over feasible max selections: each consistent completion
// induces a most-current tuple per block, and each satisfiable forcing
// of per-block maxima extends to a completion. Only blocks whose members
// carry at least two distinct attribute values are branched on, and a
// current database is fixed by the values its branch blocks choose, so
// the walk de-duplicates on those values.
//
// When rels is non-empty, only the named relations' blocks are branched
// on and each database holds only those relations: the distinct current
// databases projected onto them. That is enough for a query whose
// answers depend only on the relations it mentions; a query that ranges
// over the active domain also sees every other relation's values and
// needs the unprojected databases (see query.Plan.NeedsDomain).
//
// yield returning false ends the walk before it visits another node.
// complete reports whether the walk finished: false when it ended early
// with nodes left to visit, or when the budget tripped, in which case
// err matches ErrInterrupted. An inconsistent specification yields no
// databases.
func (sv *Solver) WalkCurrentDBs(b Budget, rels []string, yield func(CurrentDB) bool) (complete bool, err error) {
	st0 := sv.stateWith(nil)
	if st0 == nil {
		return true, nil
	}
	defer sv.putState(st0)
	st0.armBudget(b)
	include := func(rel string) bool { return true }
	if len(rels) > 0 {
		set := make(map[string]bool, len(rels))
		for _, r := range rels {
			set[r] = true
		}
		include = func(rel string) bool { return set[rel] }
	}
	// Blocks worth branching on: in an included relation, and with at
	// least two distinct attribute values among members (a uniform block
	// contributes the same current value whatever its completion). canon
	// maps each member to the first member carrying the same value.
	var branch []int
	var canon [][]int32
	for bi, b := range sv.blocks {
		if !include(b.Key.Rel) {
			continue
		}
		r := sv.relOf[b.Key.Rel]
		cm := make([]int32, len(b.Members))
		uniform := true
		for m, ti := range b.Members {
			v := r.Tuples[ti][b.Key.Attr]
			for p := 0; p <= m; p++ {
				if r.Tuples[b.Members[p]][b.Key.Attr] == v {
					cm[m] = int32(p)
					break
				}
			}
			uniform = uniform && cm[m] == 0
		}
		if !uniform {
			branch = append(branch, bi)
			canon = append(canon, cm)
		}
	}

	project := func(db CurrentDB) CurrentDB {
		if len(rels) == 0 {
			return db
		}
		out := make(CurrentDB, len(rels))
		for name, inst := range db {
			if include(name) {
				out[name] = inst
			}
		}
		return out
	}

	seen := make(map[string]struct{})
	chosen := make([]int32, len(branch))
	var key []byte
	complete, halted := true, false
	var rec func(d int, st *state) bool
	rec = func(d int, st *state) bool {
		if halted || st.interrupted() {
			complete = false
			return false
		}
		if d == len(branch) {
			mark := st.mark()
			if sv.searchAll(st) {
				key = key[:0]
				for i, m := range chosen {
					key = binary.AppendUvarint(key, uint64(canon[i][m]))
				}
				if _, dup := seen[string(key)]; !dup {
					seen[string(key)] = struct{}{}
					halted = !yield(project(CurrentDB(sv.modelFrom(st).CurrentDB())))
				}
				sv.undoTo(st, mark)
			} else if st.stop != nil {
				// The leaf search was interrupted, not infeasible: the
				// enumeration is truncated, not filtered.
				complete = false
				return false
			}
			return true
		}
		bi := branch[d]
		off, n := sv.litOff[bi], sv.blockN[bi]
		// Members carrying the same attribute value yield identical
		// current values, but feasibility can differ per member, so every
		// member is tried; de-duplication happens on the chosen values.
		for m := int32(0); m < n; m++ {
			// Skip members already known to be dominated: if some p has
			// m ≺ p, m cannot be the maximum.
			dominated := false
			for p := int32(0); p < n; p++ {
				if p != m && st.a[off+m*n+p] == less {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
			mark := st.mark()
			sv.pushMaxAssumptions(st, bi, int(m))
			if !sv.propagate(st) {
				sv.undoTo(st, mark)
				continue
			}
			chosen[d] = m
			cont := rec(d+1, st)
			sv.undoTo(st, mark)
			if !cont {
				return false
			}
		}
		return true
	}
	rec(0, st0)
	if st0.stop != nil {
		return false, st0.stop
	}
	return complete, nil
}

// DeterministicCurrent reports whether relation rel has the same current
// instance in every consistent completion (the DCIP decision for one
// relation): every block of the relation must have all of its possible
// maxima agree on the attribute value. Vacuously true for inconsistent
// specifications.
func (sv *Solver) DeterministicCurrent(rel string) bool {
	ok, _ := sv.DeterministicCurrentBudget(rel, Budget{})
	return ok
}

// DeterministicCurrentBudget is DeterministicCurrent under an effort
// budget shared by the consistency check and every per-member
// feasibility query; a non-nil error matching ErrInterrupted means the
// verdict is indeterminate.
func (sv *Solver) DeterministicCurrentBudget(rel string, b Budget) (bool, error) {
	consistent, err := sv.ConsistentBudget(b)
	if err != nil {
		return false, err
	}
	if !consistent {
		return true, nil
	}
	r := sv.relOf[rel]
	for bi, blk := range sv.blocks {
		if blk.Key.Rel != rel {
			continue
		}
		var val relation.Value
		first := true
		for m, ti := range blk.Members {
			sat, err := sv.SatWithBudget(sv.maxAssumptions(bi, m), b)
			if err != nil {
				return false, err
			}
			if !sat {
				continue
			}
			v := r.Tuples[ti][blk.Key.Attr]
			if first {
				val, first = v, false
			} else if v != val {
				return false, nil
			}
		}
	}
	return true, nil
}

// OneModel returns an arbitrary consistent completion, or ok=false when
// the specification is inconsistent.
func (sv *Solver) OneModel() (spec.Model, bool) {
	return sv.SolveWith(nil)
}
