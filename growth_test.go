package currency

import (
	"math"
	"runtime"
	"testing"
	"time"

	"currency/internal/gen"
	"currency/internal/osolve"
	"currency/internal/parse"
	"currency/internal/relation"
	"currency/internal/spec"
	"currency/internal/tractable"
)

// growthShape is the solver benchmark's workload shape (currencybench's
// hardWorkload, at a fixed seed) with the given number of entities per
// relation and constraints: three tuples per entity, two relations, one
// copy function.
func growthShape(entities, constraints int) *spec.Spec {
	return gen.Random(gen.Config{
		Seed: 42, Relations: 2, Entities: entities, TuplesPerEntity: 3,
		Attrs: 2, Domain: 3, OrderDensity: 0.3, Constraints: constraints, Copies: 1, CopyDensity: 0.5,
	})
}

// chainSpec is one relation holding a single entity of n tuples whose
// orders are a chain on every attribute.
func chainSpec(n int) *spec.Spec {
	dt := relation.NewTemporal(relation.MustSchema("R", "eid", "A", "B"))
	for i := 0; i < n; i++ {
		dt.MustAdd(relation.Tuple{relation.S("e"), relation.I(int64(i)), relation.I(int64(i))})
	}
	for _, attr := range []string{"A", "B"} {
		for i := 1; i < n; i++ {
			dt.MustAddOrder(attr, i-1, i)
		}
	}
	s := spec.New()
	if err := s.AddRelation(dt); err != nil {
		panic(err)
	}
	return s
}

// perCall measures f's allocated bytes and wall time per call: the mean
// over a few calls, minimized over rounds so that a GC cycle or a
// scheduler hiccup in one round does not count.
func perCall(f func()) (bytes float64, dur time.Duration) {
	const rounds, calls = 5, 4
	bytes, dur = math.Inf(1), time.Duration(math.MaxInt64)
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for c := 0; c < calls; c++ {
			f()
		}
		d := time.Since(t0) / calls
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/calls)
		dur = min(dur, d)
	}
	return bytes, dur
}

// TestColdPathGrowth gates how the per-request cold path grows: from 64
// to 256 entities, the slope log(bytes(256)/bytes(64))/log 4 of allocated
// bytes must stay at or below 1.15 — linear, with a margin — for spec
// validation, parsing, grounding and the Theorem 6.1 fixpoint. Bytes
// repeat to a few digits from run to run where time does not, so only
// bytes are gated; the time slopes are logged. The chain case puts every
// tuple into one entity, where a per-member scan of the group would show.
// The test must not run in parallel with others: it reads the process's
// allocation counters.
func TestColdPathGrowth(t *testing.T) {
	const small, large, bound = 64, 256, 1.15
	paths := []struct {
		name string
		// prepare builds the input at the given size and returns the
		// measured call.
		prepare func(entities int) func() error
	}{
		{"spec.Validate", func(n int) func() error { return growthShape(n, 3).Validate }},
		{"spec.Validate/one-entity-chain", func(n int) func() error { return chainSpec(3 * n).Validate }},
		{"parse.ParseFile", func(n int) func() error {
			src := parse.Marshal(growthShape(n, 3))
			return func() error { _, err := parse.ParseFile(src); return err }
		}},
		{"osolve.New", func(n int) func() error {
			s := growthShape(n, 3)
			return func() error { _, err := osolve.New(s); return err }
		}},
		{"tractable.POInfinity", func(n int) func() error {
			s := growthShape(n, 0)
			return func() error { _, err := tractable.POInfinity(s); return err }
		}},
	}
	slope := func(a, b float64) float64 { return math.Log(b/a) / math.Log(large/small) }
	for _, p := range paths {
		var bytes [2]float64
		var durs [2]time.Duration
		for k, n := range []int{small, large} {
			run := p.prepare(n)
			if err := run(); err != nil {
				t.Fatalf("%s at %d entities: %v", p.name, n, err)
			}
			bytes[k], durs[k] = perCall(func() { _ = run() })
		}
		bs := slope(bytes[0], bytes[1])
		t.Logf("%-32s bytes %9.0f → %9.0f (slope %.2f)   time %v → %v (slope %.2f)", p.name,
			bytes[0], bytes[1], bs, durs[0], durs[1], slope(float64(durs[0]), float64(durs[1])))
		if bs > bound {
			t.Errorf("%s: allocated bytes grow with slope %.2f from %d to %d entities, want ≤ %.2f",
				p.name, bs, small, large, bound)
		}
	}
}
