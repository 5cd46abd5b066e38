// Command benchgate compares a freshly measured currencybench JSON
// stream against the committed baseline (BENCH_solver.json) and fails —
// exit status 1 — when a tracked metric regressed beyond the threshold.
// It is the CI regression gate for the engine's headline numbers: the
// cold grounding cost, the sequential and warm certain-order query costs
// of the solver table, the delta-apply cost of the incremental table,
// and the gadget solve times and learned-clause counts of the hardness
// table.
//
// Usage:
//
//	go run ./cmd/currencybench -table solver -json > fresh.json
//	go run ./cmd/currencybench -table incremental -json >> fresh.json
//	go run ./cmd/currencybench -table hardness -json >> fresh.json
//	go run ./cmd/benchgate -baseline BENCH_solver.json -fresh fresh.json
//
// The baseline file is append-only history (one JSON object per line);
// the gate compares each fresh row against the LAST baseline row with
// the same key — (table, entities) for solver rows, (experiment, mode,
// size) for hardness rows, (experiment, delta_kind, entities) for
// incremental rows — so committing a new generation of rows
// rebases the gate. Rows and metrics missing on either side are
// reported but never fail the gate (new experiments must be landable),
// and one-shot timings on shared runners are noisy, so the default
// threshold is generous (+25%) and the CI step is skippable via the
// skip-bench-gate label for known-noisy runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
)

// row is one currencybench -json line; only the gated fields are typed.
type row map[string]any

func (r row) num(key string) (float64, bool) {
	v, ok := r[key].(float64)
	return v, ok
}

func (r row) key() (string, bool) {
	table, _ := r["table"].(string)
	switch table {
	case "solver":
		ents, ok := r.num("entities")
		if !ok {
			return "", false
		}
		return fmt.Sprintf("%s/entities=%d", table, int(ents)), true
	case "hardness":
		// One gadget instance per (experiment, mode, size); the size field
		// depends on the gadget (n+triples for betweenness, vars for the
		// 3SAT CCQA rows).
		exp, _ := r["experiment"].(string)
		mode, _ := r["mode"].(string)
		if exp == "" || mode == "" {
			return "", false
		}
		k := fmt.Sprintf("%s/%s/%s", table, exp, mode)
		for _, dim := range []string{"n", "triples", "vars"} {
			if v, ok := r.num(dim); ok {
				k += fmt.Sprintf("/%s=%d", dim, int(v))
			}
		}
		return k, true
	case "incremental":
		// One row per (experiment, delta kind, spec size).
		exp, _ := r["experiment"].(string)
		kind, _ := r["delta_kind"].(string)
		ents, ok := r.num("entities")
		if exp == "" || kind == "" || !ok {
			return "", false
		}
		return fmt.Sprintf("%s/%s/%s/entities=%d", table, exp, kind, int(ents)), true
	case "cluster":
		// One row per (experiment, ring shape): forwarding keyed by node
		// count, replication and patch-throughput additionally by the
		// replication factor.
		exp, _ := r["experiment"].(string)
		if exp == "" {
			return "", false
		}
		k := fmt.Sprintf("%s/%s", table, exp)
		for _, dim := range []string{"nodes", "replicas"} {
			if v, ok := r.num(dim); ok {
				k += fmt.Sprintf("/%s=%d", dim, int(v))
			}
		}
		return k, true
	}
	return "", false
}

// readRows parses one JSON object per line, skipping non-JSON noise.
func readRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r row
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

func main() {
	log.SetFlags(0)
	baseline := flag.String("baseline", "BENCH_solver.json", "committed baseline (JSON lines, append-only history)")
	fresh := flag.String("fresh", "", "freshly measured rows (JSON lines)")
	threshold := flag.Float64("threshold", 0.25, "allowed relative regression (0.25 = +25%)")
	metricsFlag := flag.String("metrics",
		"warm_cop_ns,cold_ground_ns,cold_seq_ns,decisions_per_query,delta_apply_ns,hardness_solve_ns,learned_clauses,forwarded_query_ns",
		"comma-separated metrics to gate (rows lacking a metric skip it; latency-style lower-is-better only — patches_per_sec is reported, not gated)")
	flag.Parse()
	if *fresh == "" {
		log.Fatal("benchgate: -fresh is required")
	}
	metrics := strings.Split(*metricsFlag, ",")

	baseRows, err := readRows(*baseline)
	if err != nil {
		log.Fatal(err)
	}
	freshRows, err := readRows(*fresh)
	if err != nil {
		log.Fatal(err)
	}
	// Last baseline row per key wins: the file is append-only history.
	base := make(map[string]row)
	for _, r := range baseRows {
		if k, ok := r.key(); ok {
			base[k] = r
		}
	}

	failed := false
	checked := 0
	for _, fr := range freshRows {
		k, ok := fr.key()
		if !ok {
			continue
		}
		br, ok := base[k]
		if !ok {
			fmt.Printf("benchgate: %s: no baseline row (new experiment, not gated)\n", k)
			continue
		}
		for _, m := range metrics {
			fv, fok := fr.num(m)
			bv, bok := br.num(m)
			if fok && !bok {
				// A metric newer than the baseline (e.g. the engine-counter
				// columns): visible in the report, gated once a baseline
				// generation carrying it lands.
				fmt.Printf("benchgate: %s %s: fresh %.0f, no baseline (reported only)\n", k, m, fv)
				continue
			}
			if !fok || !bok || bv <= 0 {
				continue
			}
			checked++
			ratio := fv / bv
			status := "ok"
			if ratio > 1+*threshold {
				status = "REGRESSION"
				failed = true
			}
			fmt.Printf("benchgate: %s %s: baseline %.0f, fresh %.0f (%+.1f%%) %s\n",
				k, m, bv, fv, (ratio-1)*100, status)
		}
	}
	if checked == 0 {
		log.Fatal("benchgate: no comparable rows found — wrong files?")
	}
	if failed {
		log.Fatalf("benchgate: regression beyond +%.0f%% — label the PR skip-bench-gate if the runner is known noisy", *threshold*100)
	}
	fmt.Println("benchgate: all gated metrics within threshold")
}
