package main

// The untraced run: repeated set-ups, the timed closed loop, the write
// probe and the /stats self-checks.

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"currency/internal/api"
)

// setupRounds is how many times a run sets up from scratch; setup_s is
// the median round.
const setupRounds = 5

// chunks splits the timed phase: throughput and CPU per op are medians
// over the chunks, so a burst of host noise that slows a few chunks does
// not move them.
const chunks = 20

// outcome is what the oracle needs from one response.
type outcome struct {
	err     error
	version int
	res     api.DecisionResult // reads
}

// timed is the measurement of one timed phase.
type timed struct {
	lat     []time.Duration // per op
	out     []outcome
	chunks  []chunk
	elapsed time.Duration
	before  api.Stats
	after   api.Stats
	rss     int64
}

// chunk is one contiguous slice of the timed phase.
type chunk struct {
	lo, hi int // op index range
	wall   time.Duration
	cpu    time.Duration // server CPU
	ref    time.Duration // hostRef at the chunk's end
}

// setUp launches a fresh currencyd, registers every spec of the workload
// and runs one warm-up decision per spec (through the exact engine when
// the spec's decisions route there), returning the elapsed time from
// launch.
func setUp(bin string, w *workload) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, err
	}
	if err := register(d, w); err != nil {
		d.stop()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

func register(d *daemon, w *workload) error {
	for _, bs := range w.specs {
		info, err := d.client.RegisterSpec(bs.id, bs.source)
		if err != nil {
			return fmt.Errorf("register %s: %w", bs.id, err)
		}
		if info.Version != 1 {
			return fmt.Errorf("register %s: version %d, want 1", bs.id, info.Version)
		}
	}
	for _, bs := range w.specs {
		res, err := d.client.DecideCtx(context.Background(), bs.id,
			api.DecisionRequest{Op: api.OpConsistent, Exact: bs.exact})
		if err != nil {
			return fmt.Errorf("warm %s: %w", bs.id, err)
		}
		if res.Indeterminate || res.Degraded {
			return fmt.Errorf("warm %s: no exact verdict (%s)", bs.id, res.Reason)
		}
	}
	return nil
}

// issue sends one op and records its outcome.
func issue(ctx context.Context, d *daemon, w *workload, o *op) outcome {
	id := w.specs[o.spec].id
	if o.kind == opPatch {
		pr, err := d.client.PatchSpecCtx(ctx, id, *o.wire)
		return outcome{err: err, version: pr.Version}
	}
	res, err := d.client.DecideCtx(ctx, id, o.req)
	return outcome{err: err, version: res.SpecVersion, res: res}
}

// runTimed replays the op sequence as a closed loop on one connection.
func runTimed(ctx context.Context, d *daemon, w *workload) (*timed, error) {
	t := &timed{lat: make([]time.Duration, len(w.ops)), out: make([]outcome, len(w.ops))}
	var err error
	if t.before, err = d.client.Stats(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	// Start from a collected heap: the load generator's own GC should cost
	// the timed phase as little as possible.
	runtime.GC()
	per := (len(w.ops) + chunks - 1) / chunks
	mark, markCPU, lo := time.Now(), cpu0, 0
	for i := range w.ops {
		s := time.Now()
		t.out[i] = issue(ctx, d, w, &w.ops[i])
		t.lat[i] = time.Since(s)
		if (i+1)%per == 0 || i+1 == len(w.ops) {
			now := time.Now()
			cpu, err := d.cpuTime()
			if err != nil {
				return nil, err
			}
			c := chunk{lo: lo, hi: i + 1, wall: now.Sub(mark), cpu: cpu - markCPU, ref: hostRef()}
			t.chunks = append(t.chunks, c)
			t.elapsed += c.wall
			// The reference reading is not part of the next chunk.
			if markCPU, err = d.cpuTime(); err != nil {
				return nil, err
			}
			mark, lo = time.Now(), i+1
		}
	}
	if t.after, err = d.client.Stats(); err != nil {
		return nil, err
	}
	if t.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	return t, nil
}

// runProbe registers the probe spec, warms it, and replays its write
// stream; it reports the write latencies and outcomes.
func runProbe(ctx context.Context, d *daemon, p *workload) ([]time.Duration, []outcome, api.Stats, api.Stats, error) {
	if err := register(d, p); err != nil {
		return nil, nil, api.Stats{}, api.Stats{}, err
	}
	before, err := d.client.Stats()
	if err != nil {
		return nil, nil, before, before, err
	}
	lat := make([]time.Duration, len(p.ops))
	out := make([]outcome, len(p.ops))
	for i := range p.ops {
		s := time.Now()
		out[i] = issue(ctx, d, p, &p.ops[i])
		lat[i] = time.Since(s)
	}
	after, err := d.client.Stats()
	return lat, out, before, after, err
}

// selfCheck verifies, from /stats deltas over the timed phase, that the
// workload exercised the layer it exists for; a workload that stops doing
// so fails loudly instead of measuring something else.
func selfCheck(w *workload, t *timed) []string {
	b, a := t.before, t.after
	var bad []string
	check := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	check(a.RequestsShed == b.RequestsShed, "%d requests shed", a.RequestsShed-b.RequestsShed)
	check(a.QueryTimeouts == b.QueryTimeouts, "%d query timeouts", a.QueryTimeouts-b.QueryTimeouts)
	check(a.Degraded == b.Degraded, "%d degraded answers", a.Degraded-b.Degraded)
	check(a.Panics == b.Panics, "%d panics", a.Panics-b.Panics)
	hits, misses := a.CacheHits-b.CacheHits, a.CacheMisses-b.CacheMisses
	switch w.name {
	case "uncached":
		exact := 0
		for _, o := range w.ops {
			if w.specs[o.spec].exact {
				exact++
			}
		}
		check(misses == uint64(exact) && hits == 0,
			"uncached: %d exact decisions but %d cache misses, %d hits", exact, misses, hits)
	case "patch-stream":
		writes := uint64(len(w.ops) - w.reads())
		patched, regrounded := a.CachePatched-b.CachePatched, a.CacheRegrounded-b.CacheRegrounded
		check(patched == writes && regrounded == 0,
			"patch-stream: %d writes, %d patched, %d regrounded", writes, patched, regrounded)
	}
	return bad
}
