package osolve

// The engine's differential net: every path a verdict can take through
// the engine — cold grounding, warm memoized queries, incremental
// insert/delete patches, the component-contiguous block reorder — is
// pitted against brute-force enumeration of all completions on small
// random specifications. The invasive cold-path work (block reordering,
// delete remap) lands against this harness: a scenario is one way of
// building the engine, and every scenario must agree with the oracle on
// the consistency verdict, every same-entity certain pair, and the
// models SolveWith returns.

import (
	"math/rand"
	"testing"

	"currency/internal/gen"
	"currency/internal/parse"
	"currency/internal/spec"
)

// tinyConfig yields specs small enough for brute-force enumeration of all
// completions, varying shape with the seed.
func tinyConfig(seed int64) gen.Config {
	cfg := gen.Default(seed)
	switch seed % 3 {
	case 0:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 2, 2
		cfg.Constraints, cfg.Copies = 2, 1
	case 1:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 1, 3, 3, 1
		cfg.Constraints, cfg.Copies = 3, 0
	default:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 3, 1
		cfg.Constraints, cfg.Copies = 1, 1
		cfg.CopyDensity = 0.7
	}
	return cfg
}

// modelInBruteSet reports whether the engine's model is one of the
// brute-force models: every same-entity pair of every attribute must
// order identically in some enumerated completion.
func modelInBruteSet(s *spec.Spec, models []spec.Model, got spec.Model) bool {
	matches := func(want spec.Model) bool {
		for _, r := range s.Relations {
			name := r.Schema.Name
			for _, ai := range r.Schema.NonEIDIndexes() {
				for _, g := range r.Entities() {
					for x := 0; x < len(g.Members); x++ {
						for y := x + 1; y < len(g.Members); y++ {
							i, j := g.Members[x], g.Members[y]
							if got[name].Less(ai, i, j) != want[name].Less(ai, i, j) {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	for _, want := range models {
		if matches(want) {
			return true
		}
	}
	return false
}

// checkEngineAgainstBrute is the harness's oracle check: the solver's
// specification is brute-force enumerated and the engine must agree on
// (1) the consistency verdict, (2) every same-entity certain pair in
// both orientations, (3) SolveWith(nil) returning a model exactly when
// Mod(S) is non-empty — and one that IS a brute-force completion, not
// merely constraint-satisfying (that would miss base-order bugs) — and
// (4) SolveWith under each orientation of the first pair of every block
// honoring the assumption with a model from Mod(S) (untouched components
// fill from the memo, so this exercises the flat memo-span copy too).
func checkEngineAgainstBrute(t *testing.T, tag string, sv *Solver) {
	t.Helper()
	s := sv.Spec
	models := bruteModels(t, s)

	if got, want := sv.Consistent(), len(models) > 0; got != want {
		t.Errorf("%s: engine consistent=%v, brute force=%v", tag, got, want)
		return
	}
	for _, r := range s.Relations {
		name := r.Schema.Name
		for _, ai := range r.Schema.NonEIDIndexes() {
			for _, g := range r.Entities() {
				for x := 0; x < len(g.Members); x++ {
					for y := 0; y < len(g.Members); y++ {
						if x == y {
							continue
						}
						i, j := g.Members[x], g.Members[y]
						want := true
						for _, m := range models {
							if !m[name].Less(ai, i, j) {
								want = false
								break
							}
						}
						got, err := sv.CertainPair(name, r.Schema.Attrs[ai], i, j)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						if got != want {
							t.Errorf("%s: certain(%s.%s %d≺%d)=%v, brute=%v",
								tag, name, r.Schema.Attrs[ai], i, j, got, want)
						}
					}
				}
			}
		}
	}

	model, ok := sv.SolveWith(nil)
	if ok != (len(models) > 0) {
		t.Errorf("%s: SolveWith(nil) ok=%v, brute |Mod|=%d", tag, ok, len(models))
	}
	if ok && !modelInBruteSet(s, models, model) {
		t.Errorf("%s: SolveWith(nil) model is not a brute-force completion", tag)
	}
	for bi := range sv.Blocks() {
		for _, assume := range [][]Lit{
			{{Block: bi, I: 0, J: 1}},
			{{Block: bi, I: 1, J: 0}},
		} {
			model, ok := sv.SolveWith(assume)
			if !ok {
				continue // that orientation may be unsatisfiable
			}
			b := sv.Blocks()[bi]
			i, j := b.Members[assume[0].I], b.Members[assume[0].J]
			if !model[b.Key.Rel].Less(b.Key.Attr, i, j) {
				t.Errorf("%s: SolveWith model violates its assumption on block %d", tag, bi)
			}
			if !modelInBruteSet(s, models, model) {
				t.Errorf("%s: SolveWith(assume) model is not a brute-force completion", tag)
			}
		}
	}
}

// deltaConfig builds the delta shape of one harness scenario.
func deltaConfig(inserts, deletes int) gen.DeltaConfig {
	return gen.DeltaConfig{Inserts: inserts, NewEntity: 0.3, Deletes: deletes, Orders: 1}
}

// engineScenarios are the ways of building the engine the harness
// covers; each must produce brute-force-identical verdicts.
var engineScenarios = []struct {
	name  string
	seeds int64
	build func(t *testing.T, seed int64) *Solver
}{
	{"cold-reordered-blocks", 30, func(t *testing.T, seed int64) *Solver {
		// Every solver built by New is block-reordered; the cold scenario
		// additionally pins the layout invariant the others rely on.
		sv := newOrDie(t, gen.Random(tinyConfig(seed)))
		assertComponentSpansContiguous(t, sv)
		return sv
	}},
	{"warm", 30, func(t *testing.T, seed int64) *Solver {
		sv := newOrDie(t, gen.Random(tinyConfig(seed)))
		sv.Consistent() // memoize every component before the checks re-query
		return sv
	}},
	{"post-insert-delta", 25, func(t *testing.T, seed int64) *Solver {
		sv := newOrDie(t, gen.Random(tinyConfig(seed)))
		sv.Consistent()
		rng := rand.New(rand.NewSource(seed * 17))
		return applyOrDie(t, sv, gen.RandomDelta(rng, sv.Spec, deltaConfig(2, 0)))
	}},
	{"post-delete-delta", 25, func(t *testing.T, seed int64) *Solver {
		sv := newOrDie(t, gen.Random(tinyConfig(seed)))
		sv.Consistent()
		rng := rand.New(rand.NewSource(seed * 19))
		return applyOrDie(t, sv, gen.RandomDelta(rng, sv.Spec, deltaConfig(0, 2)))
	}},
}

func newOrDie(t testing.TB, s *spec.Spec) *Solver {
	t.Helper()
	sv, err := New(s)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sv
}

// assertComponentSpansContiguous checks the reorder invariant: each
// component's blocks are one ascending, contiguous run of block indices
// and its [lo, hi) span exactly covers their literal ranges.
func assertComponentSpansContiguous(t *testing.T, sv *Solver) {
	t.Helper()
	covered := 0
	for ci, c := range sv.comps {
		for k := 1; k < len(c.blocks); k++ {
			if c.blocks[k] != c.blocks[k-1]+1 {
				t.Fatalf("component %d blocks not contiguous: %v", ci, c.blocks)
			}
		}
		if c.lo != sv.litOff[c.blocks[0]] || c.hi != sv.litOff[c.blocks[len(c.blocks)-1]+1] {
			t.Fatalf("component %d span [%d,%d) does not cover blocks %v", ci, c.lo, c.hi, c.blocks)
		}
		covered += len(c.blocks)
	}
	if covered != len(sv.blocks) {
		t.Fatalf("component spans cover %d blocks, want %d", covered, len(sv.blocks))
	}
}

// TestEngineDifferential runs every scenario of the table against the
// brute-force oracle.
func TestEngineDifferential(t *testing.T) {
	for _, sc := range engineScenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(0); seed < sc.seeds; seed++ {
				sv := sc.build(t, seed)
				checkEngineAgainstBrute(t, fmtTag(seed, 0), sv)
			}
		})
	}
}

// TestEngineDifferentialDeltaChain chains mixed random deltas — inserts,
// deletes, order reveals, constraint and copy-function add/drop — over
// tiny specs and checks the patched engine against the oracle after
// every patch, alternating warm and cold receivers (deltas must patch
// correctly whether or not memos exist yet).
func TestEngineDifferentialDeltaChain(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		sv := newOrDie(t, gen.Random(tinyConfig(seed)))
		rng := rand.New(rand.NewSource(seed * 31))
		for step := 0; step < 3; step++ {
			if step%2 == 0 {
				sv.Consistent()
			}
			d := gen.RandomDelta(rng, sv.Spec, gen.DeltaConfig{
				Inserts: 1 + step%2, NewEntity: 0.3, Deletes: 1, Orders: 1,
				PConstraint: 0.4, PCopyDrop: 0.3,
			})
			sv = applyOrDie(t, sv, d)
			assertComponentSpansContiguous(t, sv)
			checkEngineAgainstBrute(t, fmtTag(seed, step), sv)
		}
	}
}

// TestRandomSourceDifferential round-trips tiny random specs through the
// textual wire format (gen.RandomSource → parse.ParseFile — the exact
// bytes a currencyd client would POST) and runs the oracle check on the
// reparsed engine.
func TestRandomSourceDifferential(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		src := gen.RandomSource(tinyConfig(seed))
		f, err := parse.ParseFile(src)
		if err != nil {
			t.Fatalf("seed %d: round-trip parse failed: %v", seed, err)
		}
		checkEngineAgainstBrute(t, fmtTag(seed, 0), newOrDie(t, f.Spec))
	}
}
