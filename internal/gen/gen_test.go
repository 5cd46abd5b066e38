package gen

import (
	"math/rand"
	"testing"

	"currency/internal/query"
)

// TestRandomIsValid checks that every generated specification validates,
// across many seeds and shapes.
func TestRandomIsValid(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		cfg := Default(seed)
		cfg.Relations = 1 + int(seed%3)
		cfg.Copies = int(seed % 3)
		cfg.Constraints = int(seed % 4)
		cfg.TuplesPerEntity = 1 + int(seed%3)
		s := Random(cfg)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomDeterministic checks seed-stability.
func TestRandomDeterministic(t *testing.T) {
	a := Random(Default(7))
	b := Random(Default(7))
	for i := range a.Relations {
		if !a.Relations[i].Instance.Equal(b.Relations[i].Instance) {
			t.Fatalf("relation %d differs across identical seeds", i)
		}
	}
	if len(a.Constraints) != len(b.Constraints) || len(a.Copies) != len(b.Copies) {
		t.Fatal("constraint/copy counts differ across identical seeds")
	}
}

// TestChainedCopiesRespectCopyingCondition regression-tests the ordering
// bug where R0 ⇐ R1 copied values that R1 ⇐ R2 later rewrote.
func TestChainedCopiesRespectCopyingCondition(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		cfg := Default(seed)
		cfg.Relations = 3
		cfg.Copies = 2
		cfg.CopyDensity = 0.9
		s := Random(cfg)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRandomSPQueryIsSP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := Random(Default(1))
	for i := 0; i < 30; i++ {
		q := RandomSPQuery(rng, s.Relations[0].Schema, "Q", 3)
		if err := q.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !query.IsSP(q) {
			t.Fatalf("iteration %d: generated query is not SP: %v", i, q)
		}
	}
}

func TestRandomCQQueryIsCQ(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := Random(Default(2))
	for i := 0; i < 30; i++ {
		q := RandomCQQuery(rng, s, "Q", 3)
		if err := q.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if c := query.Classify(q); c != query.LangCQ && c != query.LangSP {
			t.Fatalf("iteration %d: classified %v: %v", i, c, q)
		}
	}
}

func TestRandomFOQueryValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := Random(Default(4))
	classes := map[query.Lang]int{}
	for i := 0; i < 200; i++ {
		q := RandomFOQuery(rng, s, "Q", 3)
		if err := q.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		classes[query.Classify(q)]++
	}
	if classes[query.LangFO] == 0 || classes[query.LangCQ]+classes[query.LangSP] == 0 {
		t.Errorf("classes %v: want both FO and conjunctive queries", classes)
	}
}

func TestRandomConstraintValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := Random(Default(3))
	for i := 0; i < 50; i++ {
		c := RandomConstraint(rng, s.Relations[0].Schema, "c")
		if err := c.Validate(s.Relations[0].Schema); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}
