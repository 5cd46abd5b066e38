package main

// The traced run's layer ladder. Each op of the sequence's prefix is
// issued again at successively deeper public entry points, one after the
// other on one goroutine: the client against a real currencyd, ServeHTTP
// and the programmatic Server API on in-process servers, then the core
// reasoner, the osolve engine and the leaf layers (spec deltas, parse,
// dc/copyfn grounding, tractable, query). Every call is a span naming its
// op, its rung and the rung above it. A rung that mutates state owns a
// replica of that state — its own server, reasoner, solver or spec copy —
// so every rung sees the same spec version. A rung's self time is its
// duration minus its child rungs' durations in the same op, so per op the
// self times sum exactly to the top rung.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"currency/internal/api"
	"currency/internal/core"
	"currency/internal/dc"
	"currency/internal/osolve"
	"currency/internal/parse"
	"currency/internal/query"
	"currency/internal/server"
	"currency/internal/spec"
	"currency/internal/tractable"
)

// span is one recorded rung call. Setup-time calls carry op -1-k for spec k.
type span struct {
	Op     int    `json:"op"`
	Rung   string `json:"rung"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e3 }

type ladder struct {
	w     *workload
	cold  bool // exact decisions miss the server's cache (uncached)
	t0    time.Time
	spans []span

	real     *daemon
	httpSrv  *server.Server // in-process, for the ServeHTTP rungs
	progSrv  *server.Server // in-process, for the programmatic rungs
	reasoner []*core.Reasoner
	solver   []*osolve.Solver
	spec     []*spec.Spec

	counts   map[string][]float64 // per-op count samples
	mismatch []string             // rungs whose verdict disagrees with the client's
}

func (l *ladder) time(op int, rung, parent string, f func()) {
	s := time.Now()
	f()
	e := time.Now()
	l.spans = append(l.spans, span{op, rung, parent, s.Sub(l.t0).Nanoseconds(), e.Sub(l.t0).Nanoseconds()})
}

// timeAllocs is time plus the call's heap allocation count; the MemStats
// reads sit outside the timed window.
func (l *ladder) timeAllocs(op int, rung, parent string, f func()) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l.time(op, rung, parent, f)
	runtime.ReadMemStats(&m1)
	l.count(rung+".allocs", float64(m1.Mallocs-m0.Mallocs))
}

func (l *ladder) count(name string, v float64) { l.counts[name] = append(l.counts[name], v) }

func (l *ladder) agree(op int, rung string, got, want bool) {
	if got != want {
		l.mismatch = append(l.mismatch, fmt.Sprintf("op %d: %s says %t, client %t", op, rung, got, want))
	}
}

// runLadder sets the replicas up and replays the first w.ladder ops.
func runLadder(bin string, w *workload) (*ladder, error) {
	l := &ladder{
		w: w, cold: w.name == "uncached", t0: time.Now(),
		spans:   make([]span, 0, 16*(w.ladder+len(w.specs))),
		counts:  make(map[string][]float64),
		httpSrv: server.New(server.Options{}),
		progSrv: server.New(server.Options{}),
	}
	defer l.httpSrv.Close()
	defer l.progSrv.Close()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	l.real = d
	defer d.stop()
	if err := register(d, w); err != nil {
		return nil, err
	}
	if err := l.setUp(); err != nil {
		return nil, err
	}
	before, err := d.client.Stats()
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.ladder; i++ {
		o := &w.ops[i]
		var err error
		if o.kind == opPatch {
			err = l.write(i, o)
		} else {
			err = l.read(i, o)
		}
		if err != nil {
			return nil, fmt.Errorf("ladder op %d (%s on %s): %w", i, o.kind, w.specs[o.spec].id, err)
		}
	}
	after, err := d.client.Stats()
	if err != nil {
		return nil, err
	}
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	if hits+misses > 0 {
		l.count("server.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	patched, reground := after.CachePatched-before.CachePatched, after.CacheRegrounded-before.CacheRegrounded
	if patched+reground > 0 {
		l.count("server.patched_ratio", float64(patched)/float64(patched+reground))
	}
	return l, nil
}

// setUp registers every spec with the in-process servers and builds the
// core, osolve and spec replicas, each warmed like the server warms its
// cache. The parse and cold-grounding layers are sampled here, once per
// spec — the work set-up does.
func (l *ladder) setUp() error {
	for k, bs := range l.w.specs {
		body, _ := json.Marshal(api.RegisterRequest{ID: bs.id, Source: bs.source})
		if code, msg := serve(l.httpSrv, http.MethodPost, "/specs", body); code != http.StatusCreated {
			return fmt.Errorf("in-process register %s: %d %s", bs.id, code, msg)
		}
		if _, err := l.progSrv.Register(bs.id, bs.source); err != nil {
			return err
		}
		warm := api.DecisionRequest{Op: api.OpConsistent, Exact: bs.exact}
		body, _ = json.Marshal(warm)
		if code, msg := serve(l.httpSrv, http.MethodPost, "/specs/"+bs.id+"/consistent", body); code != http.StatusOK {
			return fmt.Errorf("in-process warm %s: %d %s", bs.id, code, msg)
		}
		if _, err := l.progSrv.DecideCtx(context.Background(), bs.id, warm); err != nil {
			return err
		}

		op := -1 - k
		var f *parse.File
		var err error
		l.time(op, "parse.parse", "", func() { f, err = parse.ParseFile(bs.source) })
		if err != nil {
			return err
		}
		l.time(op, "parse.marshal", "", func() { parse.Marshal(f.Spec, f.Queries...) })
		l.spec = append(l.spec, bs.file.Spec)
		if !bs.exact {
			l.reasoner = append(l.reasoner, nil)
			l.solver = append(l.solver, nil)
			continue
		}
		sv, err := l.coldSolver(op, "", bs.file.Spec)
		if err != nil {
			return err
		}
		var r *core.Reasoner
		if !l.cold { // cold reads ground their own, like the server's cache misses
			if r, err = core.NewReasoner(bs.file.Spec); err != nil {
				return err
			}
			r.Consistent()
		}
		l.reasoner = append(l.reasoner, r)
		l.solver = append(l.solver, sv)
	}
	return nil
}

// serve runs one request through an in-process handler.
func serve(s *server.Server, method, path string, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// coldSolver grounds a spec from scratch the way a cache miss does:
// osolve.New (with the dc and copyfn grounding entry points re-run as its
// children), then the base sweep of the first whole-spec verdict.
func (l *ladder) coldSolver(op int, parent string, s *spec.Spec) (*osolve.Solver, error) {
	var sv *osolve.Solver
	var err error
	l.time(op, "osolve.new", parent, func() { sv, err = osolve.New(s) })
	if err != nil {
		return nil, err
	}
	l.time(op, "dc.ground", "osolve.new", func() {
		for _, c := range s.Constraints {
			if r, ok := s.Relation(c.Relation); ok {
				_, err = dc.Ground(c, r)
			}
		}
	})
	l.time(op, "copyfn.compat", "osolve.new", func() {
		for _, cf := range s.Copies {
			t, _ := s.Relation(cf.Target)
			src, _ := s.Relation(cf.Source)
			_, err = cf.CompatRules(t, src)
		}
	})
	if err != nil {
		return nil, err
	}
	l.time(op, "osolve.base_sweep", parent, func() { sv.Consistent() })
	l.count("osolve.rules_per_spec", float64(sv.RuleCount()))
	l.count("osolve.components_per_spec", float64(sv.Components()))
	return sv, nil
}

func (l *ladder) read(i int, o *op) error {
	bs := l.w.specs[o.spec]
	ctx, cancel := context.WithTimeout(context.Background(), server.DefaultQueryDeadline)
	defer cancel()

	var top api.DecisionResult
	var err error
	l.time(i, "client", "", func() { top, err = l.real.client.DecideCtx(ctx, bs.id, o.req) })
	if err != nil {
		return err
	}
	l.codec(o.req, &api.DecisionRequest{}, top, &api.DecisionResult{})
	want := top.Holds != nil && *top.Holds

	body, _ := json.Marshal(o.req)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/specs/"+bs.id+"/"+string(o.req.Op), bytes.NewReader(body))
	l.timeAllocs(i, "server.http", "client", func() { l.httpSrv.Handler().ServeHTTP(rec, req) })
	var viaHTTP api.DecisionResult
	if err := json.Unmarshal(rec.Body.Bytes(), &viaHTTP); err != nil || rec.Code != http.StatusOK {
		return fmt.Errorf("in-process ServeHTTP: %d %s", rec.Code, rec.Body.String())
	}
	if o.kind != opCCQA {
		l.agree(i, "server.http", viaHTTP.Holds != nil && *viaHTTP.Holds, want)
	}

	var dr api.DecisionResult
	l.time(i, "server.decide", "server.http", func() { dr, err = l.progSrv.DecideCtx(ctx, bs.id, o.req) })
	if err != nil {
		return err
	}
	if o.kind != opCCQA {
		l.agree(i, "server.decide", dr.Holds != nil && *dr.Holds, want)
	}

	s := l.spec[o.spec]
	if !bs.exact {
		var holds bool
		l.time(i, "tractable.decide", "server.decide", func() { holds, err = ptimeDecide(s, o) })
		l.agree(i, "tractable.decide", holds, want)
		return err
	}

	r, sv := l.reasoner[o.spec], l.solver[o.spec]
	var holds bool
	var res *query.Result
	l.timeAllocs(i, "core.decide", "server.decide", func() {
		if l.cold {
			if r, err = core.NewReasoner(s); err != nil {
				return
			}
		}
		holds, res, err = coreDecide(ctx, r, o, bs)
	})
	if err != nil {
		return err
	}
	if o.kind != opCCQA {
		l.agree(i, "core.decide", holds, want)
	}
	if l.cold {
		if sv, err = l.coldSolver(i, "core.decide", s); err != nil {
			return err
		}
	}

	c0 := sv.Stats().Counters()
	var dbs []osolve.CurrentDB
	l.time(i, "osolve.decide", "core.decide", func() { holds, dbs, err = solverDecide(sv, o, bs) })
	if err != nil {
		return err
	}
	c1 := sv.Stats().Counters()
	l.engineCounts(c0, c1)
	if o.kind != opCCQA {
		l.agree(i, "osolve.decide", holds, want)
		return nil
	}
	l.count("osolve.current_dbs_per_query", float64(len(dbs)))
	var acc *query.Result
	q := bs.file.Queries[0]
	l.time(i, "query.eval", "core.decide", func() {
		for _, db := range dbs {
			var r *query.Result
			if r, err = query.Eval(q, query.DB(db)); err != nil {
				return
			}
			if acc == nil {
				acc = r
			} else {
				acc = acc.Intersect(r)
			}
			if len(acc.Rows) == 0 {
				return
			}
		}
	})
	if canonRows(wireRows(acc)) != canonRows(top.Answers) || canonRows(wireRows(res)) != canonRows(top.Answers) {
		l.mismatch = append(l.mismatch, fmt.Sprintf("op %d: certain answers differ between rungs", i))
	}
	return err
}

func (l *ladder) engineCounts(c0, c1 osolve.EngineCounters) {
	l.count("osolve.decisions", float64(c1.Decisions-c0.Decisions))
	l.count("osolve.propagations", float64(c1.Propagations-c0.Propagations))
	l.count("osolve.conflicts", float64(c1.Conflicts-c0.Conflicts))
	l.count("osolve.learned", float64(c1.LearnedClauses-c0.LearnedClauses))
	l.count("osolve.clone_kib", float64(c1.ScopedCloneBytes-c0.ScopedCloneBytes)/1024)
	l.count("osolve.memo_hits", float64(c1.MemoHits-c0.MemoHits))
	l.count("osolve.leases", float64(c1.PoolHits-c0.PoolHits+c1.PoolMisses-c0.PoolMisses))
}

// codec times the op's api request and result types through
// encoding/json in both directions, as client and server do.
func (l *ladder) codec(req, reqOut, res, resOut any) {
	t := time.Now()
	b, _ := json.Marshal(req)
	_ = json.Unmarshal(b, reqOut)
	b, _ = json.Marshal(res)
	_ = json.Unmarshal(b, resOut)
	l.count("api.codec_us", float64(time.Since(t).Nanoseconds())/1e3)
}

// ptimeDecide runs a read op on the tractable path (COP or DCIP: the only
// ops on constraint-free specs).
func ptimeDecide(s *spec.Spec, o *op) (bool, error) {
	if o.kind == opDCIP {
		return tractable.Deterministic(s, o.rel)
	}
	reqs := make([]tractable.OrderRequirement, len(o.orders))
	for i, r := range o.orders {
		reqs[i] = tractable.OrderRequirement{Rel: r.Rel, Attr: r.Attr, I: r.I, J: r.J}
	}
	return tractable.CertainOrder(s, reqs)
}

func coreDecide(ctx context.Context, r *core.Reasoner, o *op, bs *benchSpec) (bool, *query.Result, error) {
	switch o.kind {
	case opCOP:
		ok, err := r.CertainOrderCtx(ctx, o.orders)
		return ok, nil, err
	case opDCIP:
		ok, err := r.DeterministicCtx(ctx, o.rel)
		return ok, nil, err
	}
	res, _, err := r.CertainAnswersCtx(ctx, bs.file.Queries[0])
	return false, res, err
}

func solverDecide(sv *osolve.Solver, o *op, bs *benchSpec) (bool, []osolve.CurrentDB, error) {
	switch o.kind {
	case opCOP:
		for _, r := range o.orders {
			ok, err := sv.CertainPair(r.Rel, r.Attr, r.I, r.J)
			if err != nil || !ok {
				return false, nil, err
			}
		}
		return true, nil, nil
	case opDCIP:
		return sv.DeterministicCurrent(o.rel), nil, nil
	}
	dbs, _ := sv.EnumerateCurrentDBs(0, bs.file.Queries[0].Relations()...)
	return false, dbs, nil
}

func (l *ladder) write(i int, o *op) error {
	bs := l.w.specs[o.spec]
	ctx, cancel := context.WithTimeout(context.Background(), server.DefaultWriteDeadline)
	defer cancel()

	var top api.PatchResult
	var err error
	l.time(i, "client.patch", "", func() { top, err = l.real.client.PatchSpecCtx(ctx, bs.id, *o.wire) })
	if err != nil {
		return err
	}
	l.codec(o.wire, &api.DeltaRequest{}, top, &api.PatchResult{})

	body, _ := json.Marshal(o.wire)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPatch, "/specs/"+bs.id, bytes.NewReader(body))
	l.time(i, "server.patch_http", "client.patch", func() { l.httpSrv.Handler().ServeHTTP(rec, req) })
	if rec.Code != http.StatusOK {
		return fmt.Errorf("in-process PATCH: %d %s", rec.Code, rec.Body.String())
	}
	l.time(i, "server.patch", "server.patch_http", func() { _, _, err = l.progSrv.PatchSpec(bs.id, *o.wire) })
	if err != nil {
		return err
	}

	var ns *spec.Spec
	l.time(i, "spec.apply", "server.patch", func() { ns, _, err = o.delta.Apply(l.spec[o.spec]) })
	if err != nil {
		return err
	}
	l.spec[o.spec] = ns
	l.time(i, "parse.marshal", "server.patch", func() { parse.Marshal(ns, bs.file.Queries...) })

	var nr *core.Reasoner
	l.time(i, "core.patched", "server.patch", func() { nr, err = l.reasoner[o.spec].Patched(o.delta) })
	if err != nil {
		return err
	}
	l.reasoner[o.spec] = nr

	var nsv *osolve.Solver
	l.time(i, "osolve.apply_delta", "core.patched", func() { nsv, err = l.solver[o.spec].ApplyDelta(o.delta) })
	if err != nil {
		return err
	}
	l.time(i, "osolve.rewarm", "core.patched", func() { nsv.Consistent() })
	l.solver[o.spec] = nsv
	if ps, ok := nsv.PatchStats(); ok {
		l.count("osolve.rebuilt_comps_per_patch", float64(ps.RebuiltComps))
		l.count("osolve.reused_comps_per_patch", float64(ps.ReusedComps))
		l.count("osolve.copied_rules_per_patch", float64(ps.CopiedRules))
		l.count("osolve.reground_rules_per_patch", float64(ps.RegroundRules))
		l.count("osolve.dropped_rules_per_patch", float64(ps.DroppedRules))
	}
	return nil
}

// rungStats are the per-rung duration and self-time samples (µs), over
// the ops (or set-up specs) the rung ran for.
type rungStats struct {
	dur, self []float64
}

// rungs gathers every rung's samples; perOp leaves the set-up spans out.
func (l *ladder) rungs(perOp bool) map[string]*rungStats {
	out := make(map[string]*rungStats)
	byOp := make(map[int][]span)
	for _, s := range l.spans {
		if s.Op >= 0 || !perOp {
			byOp[s.Op] = append(byOp[s.Op], s)
		}
	}
	for _, ss := range byOp {
		for _, s := range ss {
			self := s.dur()
			for _, c := range ss {
				if c.Parent == s.Rung {
					self -= c.dur()
				}
			}
			rs := out[s.Rung]
			if rs == nil {
				rs = &rungStats{}
				out[s.Rung] = rs
			}
			rs.dur = append(rs.dur, s.dur())
			rs.self = append(rs.self, self)
		}
	}
	return out
}

// telescopeGap compares the read ladder's self times, as medians weighted
// by how often each rung runs, with the median top rung: per op the self
// times sum to the top rung exactly, and this shows how closely the
// reported medians do (in % of the top rung).
func telescopeGap(rs map[string]*rungStats) float64 {
	top := rs["client"]
	if top == nil {
		return 0
	}
	n := float64(len(top.dur))
	sum := 0.0
	for _, name := range readRungs {
		if r := rs[name]; r != nil {
			sum += median(r.self) * float64(len(r.self)) / n
		}
	}
	t := median(top.dur)
	return (sum - t) / t * 100
}

// readRungs lists every rung below (and including) the read ladder's top;
// cold-path rungs count only when they ran per op.
var readRungs = []string{
	"client", "server.http", "server.decide", "tractable.decide", "core.decide",
	"osolve.decide", "query.eval", "osolve.new", "dc.ground", "copyfn.compat", "osolve.base_sweep",
}
