package tractable

import (
	"math/rand"
	"testing"

	"currency/internal/core"
	"currency/internal/gen"
)

// noDCConfig builds configurations without denial constraints, the scope
// of Section 6.
func noDCConfig(seed int64) gen.Config {
	cfg := gen.Default(seed)
	cfg.Constraints = 0
	switch seed % 3 {
	case 0:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 2, 2
		cfg.Copies, cfg.CopyDensity = 1, 0.6
	case 1:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 3, 2, 2, 2
		cfg.Copies, cfg.CopyDensity = 2, 0.6
	default:
		cfg.Relations, cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 3, 1
		cfg.Copies, cfg.CopyDensity = 1, 0.8
	}
	cfg.OrderDensity = 0.4
	return cfg
}

const diffSeeds = 80

// TestConsistentMatchesExact differentially tests Theorem 6.1's PTIME CPS
// against the exact solver on constraint-free specifications.
func TestConsistentMatchesExact(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(noDCConfig(seed))
		fast, err := Consistent(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := core.NewReasoner(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if exact := r.Consistent(); fast != exact {
			t.Errorf("seed %d: tractable consistent=%v, exact=%v", seed, fast, exact)
		}
	}
}

// TestLemma62 differentially tests Lemma 6.2: PO∞ equals the exact certain
// currency order — every PO∞ pair is certain, and every certain pair is in
// PO∞.
func TestLemma62(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(noDCConfig(seed))
		po, err := POInfinity(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !po.Consistent {
			continue
		}
		r, err := core.NewReasoner(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, rel := range s.Relations {
			name := rel.Schema.Name
			for _, ai := range rel.Schema.NonEIDIndexes() {
				attr := rel.Schema.Attrs[ai]
				for _, g := range rel.Entities() {
					for _, i := range g.Members {
						for _, j := range g.Members {
							if i == j {
								continue
							}
							exact, err := r.CertainOrder([]core.OrderRequirement{{Rel: name, Attr: attr, I: i, J: j}})
							if err != nil {
								t.Fatalf("seed %d: %v", seed, err)
							}
							fast := po.Has(name, ai, i, j)
							if exact != fast {
								t.Errorf("seed %d: %s.%s %d≺%d: PO∞=%v, exact certain=%v",
									seed, name, attr, i, j, fast, exact)
							}
						}
					}
				}
			}
		}
	}
}

// TestDeterministicMatchesExact differentially tests Theorem 6.1's PTIME
// DCIP against the exact solver.
func TestDeterministicMatchesExact(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		s := gen.Random(noDCConfig(seed))
		r, err := core.NewReasoner(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, rel := range s.Relations {
			fast, err := Deterministic(s, rel.Schema.Name)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			exact, err := r.Deterministic(rel.Schema.Name)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if fast != exact {
				t.Errorf("seed %d: deterministic(%s): tractable=%v exact=%v",
					seed, rel.Schema.Name, fast, exact)
			}
		}
	}
}

// TestCertainAnswersSPMatchesExact differentially tests Proposition 6.3:
// the poss(S)-based certain answers for SP queries must match the exact
// intersection over all current databases.
func TestCertainAnswersSPMatchesExact(t *testing.T) {
	for seed := int64(0); seed < diffSeeds; seed++ {
		cfg := noDCConfig(seed)
		s := gen.Random(cfg)
		rng := randFor(seed)
		q := gen.RandomSPQuery(rng, s.Relations[0].Schema, "Q", cfg.Domain)
		fast, consistent, err := CertainAnswersSP(s, q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := core.NewReasoner(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exact, modEmpty, err := r.CertainAnswers(q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if consistent == modEmpty {
			t.Errorf("seed %d: consistency disagreement: tractable=%v exactEmpty=%v", seed, consistent, modEmpty)
			continue
		}
		if !consistent {
			continue
		}
		if !fast.Equal(exact) {
			t.Errorf("seed %d: SP certain answers differ:\n  query: %v\n  tractable: %v\n  exact: %v",
				seed, q, fast, exact)
		}
	}
}

// TestCurrencyPreservingSPMatchesExact differentially tests Theorem 6.4's
// polynomial CPP(SP) against the exact subset-lattice search over the full
// extension space.
func TestCurrencyPreservingSPMatchesExact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		cfg := noDCConfig(seed)
		// Keep the exact side small: its cost is doubly exponential in the
		// number of extension atoms.
		cfg.Relations, cfg.Copies = 2, 1
		cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 2
		s := gen.Random(cfg)
		rng := randFor(seed)
		q := gen.RandomSPQuery(rng, s.Relations[0].Schema, "Q", cfg.Domain)

		fast, err := CurrencyPreservingSP(s, q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := core.NewReasoner(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exact, err := r.CurrencyPreserving(q)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fast != exact {
			t.Errorf("seed %d: CPP(SP): tractable=%v exact=%v\n  query: %v", seed, fast, exact, q)
		}
	}
}

// TestBoundedCopyingSPMatchesExact differentially tests the polynomial
// BCP(SP) against the exact bounded search over the full extension space,
// with one extension atom allowed, on TestCurrencyPreservingSPMatchesExact's
// specifications. Copy functions that are already currency preserving
// make BCP hold with the empty extension, so the cases where the
// tractable CPP check says true must come out true here too. Both
// verdicts must occur, or the test would not tell the two apart.
func TestBoundedCopyingSPMatchesExact(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(0); seed < 200; seed++ {
		cfg := noDCConfig(seed)
		cfg.Relations, cfg.Copies = 2, 1
		cfg.Entities, cfg.TuplesPerEntity, cfg.Attrs = 2, 2, 2
		s := gen.Random(cfg)
		rng := randFor(seed)
		q := gen.RandomSPQuery(rng, s.Relations[0].Schema, "Q", cfg.Domain)

		fast, _, err := BoundedCopyingSP(s, q, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := core.NewReasoner(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		exact, _, err := r.BoundedCopying(q, 1)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fast != exact {
			t.Errorf("seed %d: BCP(SP, k=1): tractable=%v exact=%v\n  query: %v", seed, fast, exact, q)
		}
		verdicts[exact]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Errorf("verdicts %v: want both true and false among the specifications", verdicts)
	}
}

// TestPossVacuousOnSingletons checks that poss of entities with a single
// tuple is the tuple itself.
func TestPossVacuousOnSingletons(t *testing.T) {
	cfg := noDCConfig(1)
	cfg.TuplesPerEntity = 1
	cfg.Copies = 0
	s := gen.Random(cfg)
	posses, consistent, err := Poss(s)
	if err != nil {
		t.Fatal(err)
	}
	if !consistent {
		t.Fatal("singleton spec should be consistent")
	}
	for _, rel := range s.Relations {
		got := posses[rel.Schema.Name]
		if !got.Equal(rel.Instance) {
			t.Errorf("poss(%s) = %v, want the instance itself", rel.Schema.Name, got)
		}
	}
}

func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed + 1000)) }
