package main

// Workload generation. Every input — specifications, delta streams, the
// op sequence — is a pure function of (workload, seed, seconds) and is
// built before any server starts; the server only ever receives the
// generated specs and requests.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	"currency/internal/api"
	"currency/internal/core"
	"currency/internal/gen"
	"currency/internal/osolve"
	"currency/internal/parse"
	"currency/internal/query"
	"currency/internal/reductions"
	"currency/internal/relation"
	"currency/internal/spec"
)

// opKind names the request an op issues.
type opKind uint8

const (
	opCOP   opKind = iota // certain-order on one same-entity pair
	opDCIP                // deterministic on one relation
	opCCQA                // certain-answers on the spec's declared query
	opPatch               // PATCH /specs/{id}
)

func (k opKind) String() string {
	return [...]string{"cop", "dcip", "ccqa", "patch"}[k]
}

// op is one request of a workload's fixed sequence.
type op struct {
	kind    opKind
	spec    int                     // index into workload.specs
	req     api.DecisionRequest     // reads
	orders  []core.OrderRequirement // opCOP, resolved to tuple indices
	rel     string                  // opDCIP
	delta   *spec.Delta             // opPatch, against the previous version
	wire    *api.DeltaRequest       // opPatch
	version int                     // registry version the op runs against (the new one for writes)
	content int                     // index into workload.contents: the spec at that version
}

// benchSpec is one registered specification.
type benchSpec struct {
	id     string
	source string      // registration text
	file   *parse.File // the parsed source: the benchmark's own copy
	exact  bool        // decisions route to the exact engine
	// certain is the CCQA gadgets' ground truth: tuple (1) is a certain
	// answer iff the reduced 3CNF formula is unsatisfiable.
	certain bool
}

// workload is everything one run replays.
type workload struct {
	name     string
	specs    []*benchSpec
	contents []*spec.Spec // every spec version the sequence visits
	ops      []op
	ladder   int       // how many leading ops the traced run replays
	probe    *workload // write probe, for workloads without writes
}

func (w *workload) reads() int {
	n := 0
	for _, o := range w.ops {
		if o.kind != opPatch {
			n++
		}
	}
	return n
}

// Per-workload sizes. The rates turn --seconds into a fixed op count (a
// run replays exactly that many ops, so every run has the same mix); they
// are set so a timed phase lasts about --seconds on a 2-vCPU host.
const (
	streamSpecs     = 8
	streamEntities  = 64
	streamPool      = 32 // distinct insert deltas per spec
	streamReads     = 4  // reads after every write
	streamInsertPct = 4  // tuples inserted by one delta, % of the spec
	streamRate      = 2700

	uncachedExact         = 80 // more than the default reasoner cache (64)
	uncachedExactEntities = 32
	uncachedPTime         = 8
	uncachedPTimeEntities = 48
	uncachedRate          = 730

	hardGadgets = 16 // of each kind
	hardRate    = 100

	// The write probe: three groups of 1000 writes, each leaving ten
	// samples beyond its p99, so its p99 is a median like the timed
	// phase's.
	probeWrites = 3000
	probePool   = 16

	ladderBudget = 3 * 1000 * 1000 // µs of replay the traced run aims for
)

func generate(name string, seed int64, seconds int) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "patch-stream":
		return genPatchStream(rng, seconds)
	case "uncached":
		return genUncached(rng, seconds)
	case "hard-query":
		return genHardQuery(rng, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// addSpec registers a generated specification under id: it is rendered
// in the wire format and parsed back, so the benchmark's copy is exactly
// what the server parses.
func (w *workload) addSpec(id string, s *spec.Spec, queries ...*query.Query) (*benchSpec, error) {
	src := parse.Marshal(s, queries...)
	f, err := parse.ParseFile(src)
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", id, err)
	}
	bs := &benchSpec{id: id, source: src, file: f, exact: len(f.Spec.Constraints) > 0 || len(queries) > 0}
	w.specs = append(w.specs, bs)
	w.contents = append(w.contents, f.Spec)
	return bs, nil
}

// consistentSpec draws specs of the currencybench hardWorkload shape
// (2 relations, 3 tuples per entity, 2 attributes, 3 constraints, one
// copy function) from successive seeds until one is consistent.
func consistentSpec(seed int64, entities int) (*spec.Spec, error) {
	for ; ; seed++ {
		s := gen.Random(hardConfig(seed, entities, 3))
		r, err := core.NewReasoner(s)
		if err != nil {
			return nil, err
		}
		if r.Consistent() {
			return s, nil
		}
	}
}

func hardConfig(seed int64, entities, constraints int) gen.Config {
	return gen.Config{
		Seed: seed, Relations: 2, Entities: entities, TuplesPerEntity: 3,
		Attrs: 2, Domain: 3, OrderDensity: 0.3, Constraints: constraints, Copies: 1, CopyDensity: 0.5,
	}
}

// picker draws random same-entity tuple pairs, caching each content's
// entity groups.
type picker struct {
	w      *workload
	groups map[[2]int][]relation.EntityGroup // (content, relation) -> groups of >= 2 tuples
}

func newPicker(w *workload) *picker {
	return &picker{w: w, groups: make(map[[2]int][]relation.EntityGroup)}
}

func (p *picker) multi(content, ri int) []relation.EntityGroup {
	key := [2]int{content, ri}
	if g, ok := p.groups[key]; ok {
		return g
	}
	var out []relation.EntityGroup
	for _, g := range p.w.contents[content].Relations[ri].Entities() {
		if len(g.Members) >= 2 {
			out = append(out, g)
		}
	}
	p.groups[key] = out
	return out
}

// cop builds a certain-order op on two distinct members of one entity
// group, on a random non-EID attribute.
func (p *picker) cop(rng *rand.Rand, k, content, version, ri int, g relation.EntityGroup) op {
	r := p.w.contents[content].Relations[ri]
	a := rng.Intn(len(g.Members))
	b := rng.Intn(len(g.Members) - 1)
	if b >= a {
		b++
	}
	i, j := g.Members[a], g.Members[b]
	non := r.Schema.NonEIDIndexes()
	attr := r.Schema.Attrs[non[rng.Intn(len(non))]]
	return op{
		kind: opCOP, spec: k, version: version, content: content,
		req: api.DecisionRequest{Op: api.OpCertainOrder, Orders: []api.OrderPair{
			{Rel: r.Schema.Name, Attr: attr, I: strconv.Itoa(i), J: strconv.Itoa(j)},
		}},
		orders: []core.OrderRequirement{{Rel: r.Schema.Name, Attr: attr, I: i, J: j}},
	}
}

// randomCOP picks the pair's relation and entity at random.
func (p *picker) randomCOP(rng *rand.Rand, k, content, version int) op {
	ri := rng.Intn(len(p.w.contents[content].Relations))
	gs := p.multi(content, ri)
	return p.cop(rng, k, content, version, ri, gs[rng.Intn(len(gs))])
}

func dcipOp(rng *rand.Rand, s *spec.Spec, k, content, version int) op {
	rel := s.Relations[rng.Intn(len(s.Relations))].Schema.Name
	return op{
		kind: opDCIP, spec: k, version: version, content: content, rel: rel,
		req: api.DecisionRequest{Op: api.OpDeterministic, Relation: rel},
	}
}

// opCount turns --seconds into the fixed op count, in whole cycles.
func opCount(rate, seconds, cycle int) int {
	n := rate * seconds
	return (n + cycle - 1) / cycle * cycle
}

// ladderOps sizes the traced replay from a per-op cost estimate.
func ladderOps(costUS, n int) int {
	m := ladderBudget / costUS
	if m > n {
		m = n
	}
	return m
}

// deltaPair is an insert delta and the delete that undoes it: streams
// built from pairs keep every spec the same size, so per-patch cost does
// not drift with run length.
type deltaPair struct {
	ins, del         *spec.Delta
	insWire, delWire *api.DeltaRequest
	content          int      // contents index of base + ins
	touched          [][2]int // (relation, group) of inserted tuples, in the post-insert spec
	groups           [][]relation.EntityGroup
}

// pairPool draws n insert deltas against spec k's base (inserting pct% of
// its tuples into existing entities), keeping only those that leave the
// spec consistent, each with its undoing delete.
func pairPool(rng *rand.Rand, w *workload, k, n, pct int) ([]deltaPair, error) {
	base := w.contents[k]
	baseSrc := parse.Marshal(base)
	tuples := 0
	for _, r := range base.Relations {
		tuples += r.Len()
	}
	inserts := tuples * pct / 100
	warm, err := core.NewReasoner(base)
	if err != nil {
		return nil, err
	}
	warm.Consistent()
	var pool []deltaPair
	for len(pool) < n {
		ins := gen.RandomDelta(rng, base, gen.DeltaConfig{Inserts: inserts, NewEntity: 0})
		pr, err := warm.Patched(ins)
		if err != nil {
			return nil, err
		}
		if !pr.Consistent() {
			continue
		}
		post, _, err := ins.Apply(base)
		if err != nil {
			return nil, err
		}
		del := &spec.Delta{}
		for ri, r := range post.Relations {
			for i := base.Relations[ri].Len(); i < r.Len(); i++ {
				del.Deletes = append(del.Deletes, spec.TupleDelete{Rel: r.Schema.Name, Index: i})
			}
		}
		back, _, err := del.Apply(post)
		if err != nil {
			return nil, err
		}
		if parse.Marshal(back) != baseSrc {
			return nil, fmt.Errorf("spec %d: delete does not undo its insert", k)
		}
		dp := deltaPair{
			ins: ins, del: del,
			insWire: wireDelta(base, ins), delWire: wireDelta(post, del),
			content: len(w.contents),
		}
		w.contents = append(w.contents, post)
		// The groups the inserts landed in: COP reads right after a write
		// land on exactly the components the patch rebuilt.
		for ri, r := range post.Relations {
			gs := r.Entities()
			dp.groups = append(dp.groups, gs)
			for gi, g := range gs {
				if last := g.Members[len(g.Members)-1]; last >= base.Relations[ri].Len() {
					dp.touched = append(dp.touched, [2]int{ri, gi})
				}
			}
		}
		pool = append(pool, dp)
	}
	return pool, nil
}

func wireDelta(s *spec.Spec, d *spec.Delta) *api.DeltaRequest {
	req := gen.WireDelta(s, d)
	return &req
}

// touchedGroup picks one entity group a pair's insert touched, as it
// stands in the given content (post-insert, or the base after the delete
// removed the inserted tuples again).
func (dp *deltaPair) touchedGroup(rng *rand.Rand, w *workload, content int) (int, relation.EntityGroup) {
	t := dp.touched[rng.Intn(len(dp.touched))]
	g := dp.groups[t[0]][t[1]]
	if content == dp.content {
		return t[0], g
	}
	n := w.contents[content].Relations[t[0]].Len()
	var kept []int
	for _, m := range g.Members {
		if m < n {
			kept = append(kept, m)
		}
	}
	return t[0], relation.EntityGroup{EID: g.EID, Members: kept}
}

func genPatchStream(rng *rand.Rand, seconds int) (*workload, error) {
	w := &workload{name: "patch-stream"}
	for k := 0; k < streamSpecs; k++ {
		s, err := consistentSpec(rng.Int63n(1<<40), streamEntities)
		if err != nil {
			return nil, err
		}
		if _, err := w.addSpec(fmt.Sprintf("stream%d", k), s); err != nil {
			return nil, err
		}
	}
	pools := make([][]deltaPair, streamSpecs)
	for k := range pools {
		var err error
		if pools[k], err = pairPool(rng, w, k, streamPool, streamInsertPct); err != nil {
			return nil, err
		}
	}
	p := newPicker(w)
	n := opCount(streamRate, seconds, 1+streamReads)
	cur := make([]int, streamSpecs) // pool index inserted, -1 at the base
	version := make([]int, streamSpecs)
	for k := range cur {
		cur[k], version[k] = -1, 1
	}
	for cycle := 0; len(w.ops) < n; cycle++ {
		k := cycle % streamSpecs
		version[k]++
		var dp *deltaPair
		wr := op{kind: opPatch, spec: k, version: version[k]}
		if cur[k] < 0 {
			cur[k] = rng.Intn(streamPool)
			dp = &pools[k][cur[k]]
			wr.delta, wr.wire, wr.content = dp.ins, dp.insWire, dp.content
		} else {
			dp = &pools[k][cur[k]]
			cur[k] = -1
			wr.delta, wr.wire, wr.content = dp.del, dp.delWire, k
		}
		w.ops = append(w.ops, wr)
		for r := 0; r < streamReads; r++ {
			switch r {
			case 1:
				w.ops = append(w.ops, p.randomCOP(rng, k, wr.content, wr.version))
			case 2:
				w.ops = append(w.ops, dcipOp(rng, w.contents[wr.content], k, wr.content, wr.version))
			default:
				ri, g := dp.touchedGroup(rng, w, wr.content)
				if len(g.Members) < 2 {
					w.ops = append(w.ops, p.randomCOP(rng, k, wr.content, wr.version))
					continue
				}
				w.ops = append(w.ops, p.cop(rng, k, wr.content, wr.version, ri, g))
			}
		}
	}
	w.ladder = ladderOps(1200, n)
	return w, nil
}

// genProbe builds the write probe of workloads whose sequence has no
// writes: insert/delete pairs against one 64-entity spec, so every
// workload reports PATCH latency.
func genProbe(rng *rand.Rand) (*workload, error) {
	w := &workload{name: "probe"}
	s, err := consistentSpec(rng.Int63n(1<<40), streamEntities)
	if err != nil {
		return nil, err
	}
	if _, err := w.addSpec("probe", s); err != nil {
		return nil, err
	}
	pool, err := pairPool(rng, w, 0, probePool, streamInsertPct)
	if err != nil {
		return nil, err
	}
	cur := -1
	for v := 2; len(w.ops) < probeWrites; v++ {
		wr := op{kind: opPatch, version: v}
		if cur < 0 {
			cur = rng.Intn(probePool)
			wr.delta, wr.wire, wr.content = pool[cur].ins, pool[cur].insWire, pool[cur].content
		} else {
			wr.delta, wr.wire, wr.content = pool[cur].del, pool[cur].delWire, 0
			cur = -1
		}
		w.ops = append(w.ops, wr)
	}
	return w, nil
}

func genUncached(rng *rand.Rand, seconds int) (*workload, error) {
	w := &workload{name: "uncached"}
	for k := 0; k < uncachedExact; k++ {
		s, err := consistentSpec(rng.Int63n(1<<40), uncachedExactEntities)
		if err != nil {
			return nil, err
		}
		if _, err := w.addSpec(fmt.Sprintf("exact%02d", k), s); err != nil {
			return nil, err
		}
	}
	for k := 0; k < uncachedPTime; k++ {
		s := gen.Random(hardConfig(rng.Int63n(1<<40), uncachedPTimeEntities, 0))
		if _, err := w.addSpec(fmt.Sprintf("ptime%d", k), s); err != nil {
			return nil, err
		}
	}
	p := newPicker(w)
	n := opCount(uncachedRate, seconds, 2)
	for i := 0; len(w.ops) < n; i++ {
		// Exact and PTIME decisions alternate; exact specs are visited
		// round-robin, so with more of them than cache slots every exact
		// decision misses the cache and re-grounds.
		k := uncachedExact + rng.Intn(uncachedPTime)
		if i%2 == 0 {
			k = (i / 2) % uncachedExact
		}
		if rng.Intn(3) == 0 {
			w.ops = append(w.ops, dcipOp(rng, w.contents[k], k, k, 1))
		} else {
			w.ops = append(w.ops, p.randomCOP(rng, k, k, 1))
		}
	}
	w.ladder = ladderOps(4000, n)
	probe, err := genProbe(rng)
	w.probe = probe
	return w, err
}

// Hard-query gadget sizes: ¬3SAT CCQA gadgets over 3 variables and 5
// clauses whose certain-answer loop evaluates the query on exactly
// ccqaEvals current databases, and COP pairs on solvable 7-element, 6-triple
// betweenness gadgets whose search escalates to CDCL and makes
// 9000–14000 propagations. The filters are on deterministic engine
// counts, so every seed gets gadgets of about the same cost (~10 ms per
// op, one cost cluster for both kinds).
const (
	ccqaVars, ccqaClauses, ccqaEvals = 3, 5, 2
	betwN, betwTriples               = 7, 6
	betwMinProps, betwMaxProps       = 9000, 14000
)

func genHardQuery(rng *rand.Rand, seconds int) (*workload, error) {
	w := &workload{name: "hard-query"}
	for len(w.specs) < hardGadgets {
		psi := reductions.Random3SAT(rng, ccqaVars, ccqaClauses)
		g, err := reductions.CCQAFrom3SATData(psi)
		if err != nil {
			return nil, err
		}
		s, err := sortedTuples(g.Spec)
		if err != nil {
			return nil, err
		}
		f, err := parse.ParseFile(parse.Marshal(s, g.Query))
		if err != nil {
			return nil, err
		}
		evals, err := ccqaEvalCount(f)
		if err != nil {
			return nil, err
		}
		if evals != ccqaEvals {
			continue
		}
		bs, err := w.addSpec(fmt.Sprintf("ccqa%02d", len(w.specs)), f.Spec, f.Queries...)
		if err != nil {
			return nil, err
		}
		bs.certain = !psi.Satisfiable()
	}
	type pair struct{ i, j int }
	var pairs []pair
	for len(pairs) < hardGadgets {
		inst := reductions.BetweennessInstance{N: betwN}
		for t := 0; t < betwTriples; t++ {
			p := rng.Perm(betwN)
			inst.Triples = append(inst.Triples, [3]int{p[0], p[1], p[2]})
		}
		if !inst.Solvable() {
			continue
		}
		s, err := reductions.CPSFromBetweenness(inst)
		if err != nil {
			return nil, err
		}
		f, err := parse.ParseFile(parse.Marshal(s))
		if err != nil {
			return nil, err
		}
		// Replay the server's state: a warm-up consistency check (which
		// publishes the base search's learned clauses), then the query.
		r, err := core.NewReasoner(f.Spec)
		if err != nil {
			return nil, err
		}
		r.Consistent()
		n := f.Spec.Relations[0].Len()
		i := rng.Intn(n - 1)
		j := i + 1 + rng.Intn(n-1-i)
		var qs osolve.QueryStats
		if _, err := r.Engine().CertainPairStats("R", "A", i, j, &qs); err != nil {
			return nil, err
		}
		if qs.LearnedClauses == 0 || qs.Propagations < betwMinProps || qs.Propagations > betwMaxProps {
			continue
		}
		if _, err := w.addSpec(fmt.Sprintf("betw%02d", len(pairs)), f.Spec); err != nil {
			return nil, err
		}
		pairs = append(pairs, pair{i, j})
	}
	n := opCount(hardRate, seconds, 2)
	for i := 0; len(w.ops) < n; i++ {
		g := (i / 2) % hardGadgets
		if i%2 == 0 {
			q := w.specs[g].file.Queries[0]
			w.ops = append(w.ops, op{kind: opCCQA, spec: g, version: 1, content: g,
				req: api.DecisionRequest{Op: api.OpCertainAnswers, Query: &api.QueryRef{Name: q.Name}}})
			continue
		}
		k := hardGadgets + g
		pi, pj := pairs[g].i, pairs[g].j
		w.ops = append(w.ops, op{kind: opCOP, spec: k, version: 1, content: k,
			req: api.DecisionRequest{Op: api.OpCertainOrder, Orders: []api.OrderPair{
				{Rel: "R", Attr: "A", I: strconv.Itoa(pi), J: strconv.Itoa(pj)},
			}},
			orders: []core.OrderRequirement{{Rel: "R", Attr: "A", I: pi, J: pj}},
		})
	}
	w.ladder = ladderOps(60000, n)
	probe, err := genProbe(rng)
	w.probe = probe
	return w, err
}

// sortedTuples rebuilds a spec with every relation's tuples in key order.
// CCQAFrom3SATData adds its variable tuples in map iteration order, and
// the benchmark's inputs must be a pure function of the seed. Reordering
// is sound only without orders, constraints or copies, which address
// tuples by index.
func sortedTuples(s *spec.Spec) (*spec.Spec, error) {
	if len(s.Constraints) > 0 || len(s.Copies) > 0 {
		return nil, fmt.Errorf("sortedTuples: spec has constraints or copies")
	}
	out := spec.New()
	for _, r := range s.Relations {
		for _, ps := range r.Orders {
			if ps != nil && ps.Len() > 0 {
				return nil, fmt.Errorf("sortedTuples: relation %s has orders", r.Schema.Name)
			}
		}
		ts := append([]relation.Tuple(nil), r.Tuples...)
		sort.Slice(ts, func(i, j int) bool { return ts[i].Key() < ts[j].Key() })
		dt := relation.NewTemporal(r.Schema)
		for _, t := range ts {
			dt.MustAdd(t)
		}
		if err := out.AddRelation(dt); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ccqaEvalCount replays core's certain-answer loop on a parsed gadget:
// how many current databases it evaluates the query on before the
// intersection empties (all of them when the answer is certain).
func ccqaEvalCount(f *parse.File) (int, error) {
	q := f.Queries[0]
	r, err := core.NewReasoner(f.Spec)
	if err != nil {
		return 0, err
	}
	dbs, _ := r.Engine().EnumerateCurrentDBs(0, q.Relations()...)
	for i, db := range dbs {
		res, err := query.Eval(q, query.DB(db))
		if err != nil {
			return 0, err
		}
		if len(res.Rows) == 0 {
			return i + 1, nil
		}
	}
	return len(dbs), nil
}
