// Command e2ebench is the end-to-end benchmark of currencyd: one
// invocation per workload and seed. It generates the workload's specs and
// fixed op sequence from the seed, sets a real currencyd process up
// several times (launch, register every spec, one warm-up decision per
// spec), replays the sequence as a closed loop over one loopback
// connection through internal/client, checks every answer against a
// from-scratch oracle and the server's /stats self-checks, and prints the
// end-to-end metrics. With -trace 1 it also replays a prefix of the
// sequence down the layer ladder (see ladder.go) and prints the per-layer
// metrics instead. Run it through run.sh, which builds both binaries.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mib", "MiB"},
}

var perLayer = []metricDef{
	{"client.rtt_us", "us"},
	{"client.self_us", "us"},
	{"client.patch_rtt_us", "us"},
	{"client.patch_self_us", "us"},
	{"api.codec_us", "us"},
	{"server.http_us", "us"},
	{"server.http_self_us", "us"},
	{"server.decide_us", "us"},
	{"server.route_self_us", "us"},
	{"server.allocs_per_op", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.patch_http_us", "us"},
	{"server.patch_http_self_us", "us"},
	{"server.patch_us", "us"},
	{"server.patch_self_us", "us"},
	{"server.patched_ratio", "ratio"},
	{"spec.apply_us", "us"},
	{"parse.parse_us", "us"},
	{"parse.marshal_us", "us"},
	{"core.decide_us", "us"},
	{"core.self_us", "us"},
	{"core.patched_us", "us"},
	{"core.patched_self_us", "us"},
	{"core.allocs_per_op", "count"},
	{"osolve.decide_us", "us"},
	{"osolve.decisions_per_op", "count"},
	{"osolve.propagations_per_op", "count"},
	{"osolve.memo_hit_ratio", "ratio"},
	{"osolve.clone_kib_per_op", "KiB"},
	{"osolve.apply_delta_us", "us"},
	{"osolve.rewarm_us", "us"},
	{"osolve.rebuilt_comps_per_patch", "count"},
	{"osolve.reused_comps_per_patch", "count"},
	{"osolve.copied_rules_per_patch", "count"},
	{"osolve.reground_rules_per_patch", "count"},
	{"osolve.dropped_rules_per_patch", "count"},
	{"osolve.new_us", "us"},
	{"osolve.new_self_us", "us"},
	{"osolve.base_sweep_us", "us"},
	{"osolve.rules_per_spec", "count"},
	{"osolve.components_per_spec", "count"},
	{"dc.ground_us", "us"},
	{"copyfn.compat_us", "us"},
	{"tractable.decide_us", "us"},
	{"osolve.conflicts_per_op", "count"},
	{"osolve.learned_per_op", "count"},
	{"osolve.current_dbs_per_query", "count"},
	{"query.eval_us", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.telescope_gap_pct", "%"},
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "patch-stream, uncached or hard-query")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "target length of the timed phase")
	trace := flag.Int("trace", 0, "1 replays the layer ladder and prints per-layer metrics")
	bin := flag.String("server", "", "path of the currencyd binary")
	out := flag.String("out", ".", "directory for the trace spans")
	flag.Parse()
	if *bin == "" || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: need -server, -seconds >= 1 and -trace 0|1")
		return 2
	}
	// A run must end within 180s; anything that hangs is cut here (the
	// child server dies with us: it is started with a parent-death signal).
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "e2ebench: run exceeded 170s")
		os.Exit(3)
	})
	if err := bench(*workload, *seed, *seconds, *trace == 1, *bin, *out); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

func bench(name string, seed int64, seconds int, trace bool, bin, outDir string) error {
	w, err := generate(name, seed, seconds)
	if err != nil {
		return err
	}
	diag("workload %s seed %d: %d specs, %d ops (%d reads), ladder %d ops, sequence digest %016x",
		w.name, seed, len(w.specs), len(w.ops), w.reads(), w.ladder, digest(w))

	var setups []float64
	var d *daemon
	for r := 0; r < setupRounds; r++ {
		dd, took, err := setUp(bin, w)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		if r < setupRounds-1 {
			dd.stop()
		} else {
			d = dd
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	t, err := runTimed(ctx, d, w)
	if err != nil {
		d.stop()
		return err
	}
	writeLat, writeOut, writeOps := writeSamples(w, t)
	var probeBad []string
	if w.probe != nil {
		lat, out, before, after, err := runProbe(ctx, d, w.probe)
		if err != nil {
			d.stop()
			return err
		}
		writeLat, writeOut, writeOps = lat, out, w.probe.ops
		if p := after.CachePatched - before.CachePatched; p != uint64(len(lat)) {
			probeBad = append(probeBad, fmt.Sprintf("probe: %d writes, %d patched", len(lat), p))
		}
	}
	d.stop()

	// Verdict oracle over every response.
	failed := 0
	or := newOracle(w)
	for i := range w.ops {
		if err := or.check(&w.ops[i], t.out[i]); err != nil {
			failed++
			if failed <= 5 {
				diag("failed op %d (%s on %s): %v", i, w.ops[i].kind, w.specs[w.ops[i].spec].id, err)
			}
		}
	}
	if w.probe != nil {
		po := newOracle(w.probe)
		for i := range writeOps {
			if err := po.check(&writeOps[i], writeOut[i]); err != nil {
				failed++
				diag("failed probe write %d: %v", i, err)
			}
		}
	}
	bad := append(selfCheck(w, t), probeBad...)
	for _, b := range bad {
		diag("self-check failed: %s", b)
	}

	e2e, readLat := endToEndMetrics(w, t, setups, writeLat)
	rBeyond, wBeyond := beyondP99(readLat), beyondP99(writeLat)
	var refs []float64
	for _, c := range t.chunks {
		refs = append(refs, float64(c.ref.Microseconds()))
	}
	diag("timed phase %.2fs, %.0f op/s overall; setup rounds %v s", t.elapsed.Seconds(),
		float64(len(w.ops))/t.elapsed.Seconds(), roundAll(setups, 4))
	diag("op/s per chunk %v", roundAll(chunkRates(t), 0))
	diag("host reference per chunk (us; higher = slower host) %v; median %.0f us, correlation with op/s per chunk %.2f",
		refs, median(refs), correlation(refs, chunkRates(t)))
	diag("samples beyond p99 in the smallest group: reads %d, writes %d (of %d writes)", rBeyond, wBeyond, len(writeLat))
	classLatency(w, t)
	if w.name == "patch-stream" {
		stationary(w, writeLat)
	}
	correct := failed == 0 && len(bad) == 0

	metrics := e2e
	defs := endToEnd
	if trace {
		l, err := runLadder(bin, w)
		if err != nil {
			return err
		}
		metrics = layerMetrics(l, e2e["read_p50_us"])
		defs = perLayer
		for i, m := range l.mismatch {
			if i < 5 {
				diag("ladder disagreement: %s", m)
			}
		}
		correct = correct && len(l.mismatch) == 0
		if err := writeSpans(l, outDir, name, seed); err != nil {
			return err
		}
	}
	for _, m := range endToEnd {
		diag("%-14s %14.4f %s", m.name, e2e[m.name], m.unit)
	}
	attempted := len(w.ops)
	if w.probe != nil {
		attempted += len(writeOps)
	}
	return emit(correct, attempted, failed, metrics, defs)
}

// endToEndMetrics derives the end-to-end metrics. Throughput and CPU per
// op are medians over the timed phase's chunks; latency percentiles are
// grouped (see groupedPercentile). Both keep a burst of host noise that
// slows part of a run from moving the run's figures.
func endToEndMetrics(w *workload, t *timed, setups []float64, writeLat []time.Duration) (map[string]float64, []time.Duration) {
	var cpu []float64
	for _, c := range t.chunks {
		cpu = append(cpu, float64(c.cpu.Nanoseconds())/1e3/float64(c.hi-c.lo))
	}
	var reads []time.Duration
	for i, o := range w.ops {
		if o.kind != opPatch {
			reads = append(reads, t.lat[i])
		}
	}
	return map[string]float64{
		"setup_s":       median(setups),
		"op_per_s":      median(chunkRates(t)),
		"read_p50_us":   groupedPercentile(reads, 0.50),
		"read_p99_us":   groupedPercentile(reads, 0.99),
		"write_p50_us":  groupedPercentile(writeLat, 0.50),
		"write_p99_us":  groupedPercentile(writeLat, 0.99),
		"cpu_us_per_op": median(cpu),
		"peak_rss_mib":  float64(t.rss) / (1 << 20),
	}, reads
}

func chunkRates(t *timed) []float64 {
	var rate []float64
	for _, c := range t.chunks {
		rate = append(rate, float64(c.hi-c.lo)/c.wall.Seconds())
	}
	return rate
}

// writeSamples picks the timed phase's writes (patch-stream).
func writeSamples(w *workload, t *timed) ([]time.Duration, []outcome, []op) {
	var lat []time.Duration
	var out []outcome
	var ops []op
	for i, o := range w.ops {
		if o.kind == opPatch {
			lat = append(lat, t.lat[i])
			out = append(out, t.out[i])
			ops = append(ops, o)
		}
	}
	return lat, out, ops
}

// stationary shows the write stream does not drift: first- vs
// second-half write p50, and spec sizes at the start and end of the run.
func stationary(w *workload, lat []time.Duration) {
	h := len(lat) / 2
	a, _ := percentile(lat[:h], 0.5)
	b, _ := percentile(lat[h:], 0.5)
	last := make([]int, len(w.specs))
	for k := range last {
		last[k] = k
	}
	for _, o := range w.ops {
		if o.kind == opPatch {
			last[o.spec] = o.content
		}
	}
	var sizes []string
	for k := range w.specs {
		sizes = append(sizes, fmt.Sprintf("%s %d->%d", w.specs[k].id, tuples(w, k), tuples(w, last[k])))
	}
	diag("write p50 first half %.1f us, second half %.1f us (%+.1f%%); tuples %s",
		a, b, (b/a-1)*100, strings.Join(sizes, ", "))
}

// classLatency prints latency per op class (kind and engine), to show
// which cost clusters the reported percentiles fall in.
func classLatency(w *workload, t *timed) {
	by := make(map[string][]time.Duration)
	for i, o := range w.ops {
		class := o.kind.String()
		if o.kind != opPatch && !w.specs[o.spec].exact {
			class += "/ptime"
		}
		by[class] = append(by[class], t.lat[i])
	}
	var parts []string
	for class, lat := range by {
		p50, _ := percentile(lat, 0.5)
		p99, _ := percentile(lat, 0.99)
		parts = append(parts, fmt.Sprintf("%s n=%d p50=%.0f p99=%.0f", class, len(lat), p50, p99))
	}
	sort.Strings(parts)
	diag("latency by class (us): %s", strings.Join(parts, "; "))
}

func tuples(w *workload, content int) int {
	n := 0
	for _, r := range w.contents[content].Relations {
		n += r.Len()
	}
	return n
}

// layerMetrics derives the per-layer metrics from the ladder's spans:
// timings are per-op medians (µs), counts per-op means.
func layerMetrics(l *ladder, readP50 float64) map[string]float64 {
	all := l.rungs(false)
	perOp := l.rungs(true)
	m := make(map[string]float64)
	med := func(rs map[string]*rungStats, rung string, self bool) float64 {
		r := rs[rung]
		if r == nil {
			return 0
		}
		if self {
			return median(r.self)
		}
		return median(r.dur)
	}
	for metric, rung := range map[string]string{
		"client.rtt_us": "client", "client.patch_rtt_us": "client.patch",
		"server.http_us": "server.http", "server.decide_us": "server.decide",
		"server.patch_http_us": "server.patch_http", "server.patch_us": "server.patch",
		"spec.apply_us": "spec.apply", "core.decide_us": "core.decide", "core.patched_us": "core.patched",
		"osolve.decide_us": "osolve.decide", "osolve.apply_delta_us": "osolve.apply_delta",
		"osolve.rewarm_us": "osolve.rewarm", "tractable.decide_us": "tractable.decide",
		"query.eval_us": "query.eval",
	} {
		m[metric] = med(perOp, rung, false)
	}
	for metric, rung := range map[string]string{
		"client.self_us": "client", "client.patch_self_us": "client.patch",
		"server.http_self_us": "server.http", "server.route_self_us": "server.decide",
		"server.patch_http_self_us": "server.patch_http", "server.patch_self_us": "server.patch",
		"core.self_us": "core.decide", "core.patched_self_us": "core.patched",
	} {
		m[metric] = med(perOp, rung, true)
	}
	// Parse and cold-path rungs run at set-up (once per spec) and, in
	// uncached, per op: their metrics cover every such call.
	for metric, rung := range map[string]string{
		"parse.parse_us": "parse.parse", "parse.marshal_us": "parse.marshal",
		"osolve.new_us": "osolve.new", "osolve.base_sweep_us": "osolve.base_sweep",
		"dc.ground_us": "dc.ground", "copyfn.compat_us": "copyfn.compat",
	} {
		m[metric] = med(all, rung, false)
	}
	m["osolve.new_self_us"] = med(all, "osolve.new", true)

	c := l.counts
	m["api.codec_us"] = median(c["api.codec_us"])
	m["server.allocs_per_op"] = mean(c["server.http.allocs"])
	m["core.allocs_per_op"] = mean(c["core.decide.allocs"])
	m["server.cache_hit_ratio"] = mean(c["server.cache_hit_ratio"])
	m["server.patched_ratio"] = mean(c["server.patched_ratio"])
	m["osolve.decisions_per_op"] = mean(c["osolve.decisions"])
	m["osolve.propagations_per_op"] = mean(c["osolve.propagations"])
	m["osolve.conflicts_per_op"] = mean(c["osolve.conflicts"])
	m["osolve.learned_per_op"] = mean(c["osolve.learned"])
	m["osolve.clone_kib_per_op"] = mean(c["osolve.clone_kib"])
	if leases := mean(c["osolve.leases"]); leases > 0 {
		m["osolve.memo_hit_ratio"] = mean(c["osolve.memo_hits"]) / leases
	}
	for _, name := range []string{
		"osolve.rebuilt_comps_per_patch", "osolve.reused_comps_per_patch", "osolve.copied_rules_per_patch",
		"osolve.reground_rules_per_patch", "osolve.dropped_rules_per_patch",
		"osolve.rules_per_spec", "osolve.components_per_spec", "osolve.current_dbs_per_query",
	} {
		m[name] = mean(c[name])
	}
	if rtt := m["client.rtt_us"]; rtt > 0 && readP50 > 0 {
		m["trace.overhead_pct"] = (rtt/readP50 - 1) * 100
	}
	m["trace.telescope_gap_pct"] = telescopeGap(perOp)
	return m
}

// writeSpans writes the ladder's spans as JSON lines.
func writeSpans(l *ladder, dir, name string, seed int64) error {
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	diag("wrote %d spans to %s", len(l.spans), path)
	return nil
}

// digest fingerprints the op sequence, so two runs can show they replayed
// the same one.
func digest(w *workload) uint64 {
	h := fnv.New64a()
	for _, o := range w.ops {
		fmt.Fprintf(h, "%s|%s|%d|%v|%s|%d|", o.kind, w.specs[o.spec].id, o.version, o.orders, o.rel, o.content)
	}
	for _, bs := range w.specs {
		h.Write([]byte(bs.source))
	}
	return h.Sum64()
}

func diag(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

func roundAll(xs []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*p) / p
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the result object as the last line of standard output.
func emit(correct bool, attempted, failed int, values map[string]float64, defs []metricDef) error {
	ms := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		ms[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
