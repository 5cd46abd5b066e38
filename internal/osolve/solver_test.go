package osolve

import (
	"testing"

	"currency/internal/dc"
	"currency/internal/gen"
	"currency/internal/spec"
)

// testConfigs yields a family of small configurations whose brute-force
// model enumeration stays tractable, varying shape with the seed.
func testConfig(seed int64) gen.Config {
	cfg := gen.Default(seed)
	switch seed % 4 {
	case 0:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 2, 2
		cfg.Constraints, cfg.Copies = 2, 1
	case 1:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 3, 1
		cfg.Constraints, cfg.Copies = 3, 1
	case 2:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 1, 2, 3, 2
		cfg.Constraints, cfg.Copies = 2, 0
	default:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 1, 3, 2
		cfg.Constraints, cfg.Copies = 0, 1
		cfg.CopyDensity = 0.8
	}
	return cfg
}

const diffSeeds = 60

// bruteModels materializes Mod(S) by brute force.
func bruteModels(t *testing.T, s *spec.Spec) []spec.Model {
	t.Helper()
	var models []spec.Model
	if err := s.EnumerateModels(func(m spec.Model) bool {
		models = append(models, m)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return models
}

// TestConsistencyMatchesBruteForce differentially tests CPS: the solver's
// consistency verdict must agree with brute-force enumeration of Mod(S).
func TestConsistencyMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(testConfig(seed))
		sv, err := New(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := len(bruteModels(t, s)) > 0
		if got := sv.Consistent(); got != want {
			t.Errorf("seed %d: solver consistent=%v, brute force=%v", seed, got, want)
		}
	}
}

// TestCertainPairMatchesBruteForce differentially tests COP's primitive:
// a pair is certain iff it holds in every brute-force model (vacuously
// certain when Mod(S) is empty).
func TestCertainPairMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(testConfig(seed))
		sv, err := New(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		models := bruteModels(t, s)
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
								t.Fatalf("seed %d: %v", seed, err)
							}
							if got != want {
								t.Errorf("seed %d: certain(%s.%s %d≺%d)=%v, brute=%v (|Mod|=%d)",
									seed, name, r.Schema.Attrs[ai], i, j, got, want, len(models))
							}
						}
					}
				}
			}
		}
	}
}

// TestCurrentDBsMatchBruteForce differentially tests the max-selection
// enumeration: the set of distinct current databases must equal the set of
// LST(Dc) over all brute-force models.
func TestCurrentDBsMatchBruteForce(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(testConfig(seed))
		sv, err := New(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := make(map[string]bool)
		for _, m := range bruteModels(t, s) {
			want[CurrentDB(m.CurrentDB()).Key()] = true
		}
		dbs, complete := sv.EnumerateCurrentDBs(0)
		if !complete {
			t.Fatalf("seed %d: truncated enumeration", seed)
		}
		got := make(map[string]bool)
		for i, db := range dbs {
			got[db.Key()] = true
			if i > 0 && dbs[i-1].Key() >= db.Key() {
				t.Fatalf("seed %d: databases not distinct and sorted by key", seed)
			}
		}
		if len(got) != len(want) {
			t.Errorf("seed %d: %d current DBs, brute force has %d", seed, len(got), len(want))
			continue
		}
		for k := range want {
			if !got[k] {
				t.Errorf("seed %d: missing current DB %s", seed, k)
			}
		}
	}
}

// TestDeterministicMatchesBruteForce differentially tests DCIP.
func TestDeterministicMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(testConfig(seed))
		sv, err := New(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		models := bruteModels(t, s)
		for _, r := range s.Relations {
			name := r.Schema.Name
			want := true
			for _, m := range models {
				if !m[name].CurrentInstance().Equal(models[0][name].CurrentInstance()) {
					want = false
					break
				}
			}
			if got := sv.DeterministicCurrent(name); got != want {
				t.Errorf("seed %d: deterministic(%s)=%v, brute=%v", seed, name, got, want)
			}
		}
	}
}

// TestSolverModelsSatisfyEverything checks that every model the solver
// returns validates: it extends base orders, is total, satisfies all
// denial constraints and copy compatibility.
func TestSolverModelsSatisfyEverything(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(testConfig(seed))
		sv, err := New(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		model, ok := sv.OneModel()
		if !ok {
			continue
		}
		for _, comp := range model {
			if err := comp.Validate(); err != nil {
				t.Errorf("seed %d: invalid completion: %v", seed, err)
			}
		}
		if !modelSatisfiesSpec(t, s, model) {
			t.Errorf("seed %d: solver model violates the specification", seed)
		}
	}
}

func modelSatisfiesSpec(t *testing.T, s *spec.Spec, m spec.Model) bool {
	t.Helper()
	for _, c := range s.Constraints {
		ok, err := dc.Satisfied(c, m[c.Relation])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
	}
	for _, cf := range s.Copies {
		ok, err := cf.Compatible(m[cf.Target], m[cf.Source])
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return false
		}
	}
	return true
}
