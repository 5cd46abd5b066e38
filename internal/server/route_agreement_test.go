package server_test

import (
	"fmt"
	"strconv"
	"testing"

	"currency/internal/api"
	"currency/internal/gen"
	"currency/internal/parse"
	"currency/internal/relation"
	"currency/internal/server"
)

// TestPTimeRouteMatchesExact holds the served Section-6 answers to the
// exact engine's: on random constraint-free specifications, inconsistent
// ones included, CPS, COP on every ordered same-entity pair, and DCIP on
// each relation and on all of them must report the same holds and
// vacuouslyTrue whether the request takes the PTIME route or sets
// exact: true. CPP and BCP are left out: the two routes decide them over
// different extension spaces.
func TestPTimeRouteMatchesExact(t *testing.T) {
	srv := server.New(server.Options{})
	var decisions, holds, vacuous, inconsistent int
	for seed := int64(0); seed < 200; seed++ {
		cfg := gen.Default(seed)
		cfg.Constraints = 0
		cfg.Relations = 1 + int(seed%3)
		cfg.Entities = 2 + int(seed%2)
		cfg.TuplesPerEntity = 2 + int(seed/2%2)
		cfg.Copies = cfg.Relations - 1
		cfg.CopyDensity = 0.7
		cfg.OrderDensity = 0.4
		id := fmt.Sprintf("s%d", seed)
		e, err := srv.Register(id, parse.Marshal(gen.Random(cfg)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var reqs []api.DecisionRequest
		reqs = append(reqs, api.DecisionRequest{Op: api.OpConsistent})
		for _, r := range e.File.Spec.Relations {
			for _, ai := range r.Schema.NonEIDIndexes() {
				for _, g := range r.Entities() {
					for _, i := range g.Members {
						for _, j := range g.Members {
							if i == j {
								continue
							}
							reqs = append(reqs, api.DecisionRequest{Op: api.OpCertainOrder, Orders: []api.OrderPair{{
								Rel: r.Schema.Name, Attr: r.Schema.Attrs[ai], I: tupleRef(r, i), J: tupleRef(r, j),
							}}})
						}
					}
				}
			}
			reqs = append(reqs, api.DecisionRequest{Op: api.OpDeterministic, Relation: r.Schema.Name})
		}
		reqs = append(reqs, api.DecisionRequest{Op: api.OpDeterministic})
		for _, req := range reqs {
			fast, err := srv.Decide(id, req)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, req, err)
			}
			req.Exact = true
			exact, err := srv.Decide(id, req)
			if err != nil {
				t.Fatalf("seed %d %+v: %v", seed, req, err)
			}
			if fast.Engine != api.EnginePTime || exact.Engine != api.EngineExact {
				t.Fatalf("seed %d %+v: engines %q and %q", seed, req, fast.Engine, exact.Engine)
			}
			if *fast.Holds != *exact.Holds || fast.VacuouslyTrue != exact.VacuouslyTrue {
				t.Errorf("seed %d %+v: ptime holds=%v vacuous=%v, exact holds=%v vacuous=%v", seed, req,
					*fast.Holds, fast.VacuouslyTrue, *exact.Holds, exact.VacuouslyTrue)
			}
			decisions++
			if *exact.Holds {
				holds++
			}
			if exact.VacuouslyTrue {
				vacuous++
			}
			if req.Op == api.OpConsistent && !*exact.Holds {
				inconsistent++
			}
		}
	}
	t.Logf("%d decisions: %d hold, %d vacuous; %d of 200 specs inconsistent", decisions, holds, vacuous, inconsistent)
	if inconsistent == 0 || vacuous == 0 || holds == decisions {
		t.Errorf("degenerate sample: %d inconsistent specs, %d vacuous, %d of %d hold",
			inconsistent, vacuous, holds, decisions)
	}
}

// tupleRef addresses tuple i of r on the wire: its label, or else its
// index.
func tupleRef(r *relation.TemporalInstance, i int) string {
	if r.Labels[i] != "" {
		return r.Labels[i]
	}
	return strconv.Itoa(i)
}
