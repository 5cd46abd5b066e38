package main

import (
	"encoding/json"
	"math"
	"sort"
	"time"

	"currency/internal/api"
)

// percentile is the nearest-rank p-quantile of the samples (p in (0,1]),
// in microseconds, and how many samples lie strictly beyond its rank.
func percentile(ds []time.Duration, p float64) (us float64, beyond int) {
	if len(ds) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return float64(s[rank-1].Nanoseconds()) / 1e3, len(s) - rank
}

// groupedPercentile splits time-ordered samples into up to maxGroups
// contiguous groups, each large enough to leave ten samples beyond its
// p-quantile, and returns the median of the groups' quantiles (µs). A
// burst of host noise that slows fewer than half the groups leaves it
// unmoved, where one quantile over the whole run would shift.
func groupedPercentile(ds []time.Duration, p float64) float64 {
	var qs []float64
	for _, g := range groups(ds, p) {
		q, _ := percentile(g, p)
		qs = append(qs, q)
	}
	return median(qs)
}

// beyondP99 is the fewest samples any p99 group leaves beyond its p99.
func beyondP99(ds []time.Duration) int {
	least := len(ds)
	for _, g := range groups(ds, 0.99) {
		if _, b := percentile(g, 0.99); b < least {
			least = b
		}
	}
	return least
}

// maxGroups caps how many groups a run's samples are split into.
const maxGroups = 20

func groups(ds []time.Duration, p float64) [][]time.Duration {
	minSize := int(math.Ceil(10 / (1 - p)))
	n := len(ds) / minSize
	if n > maxGroups {
		n = maxGroups
	}
	if n < 1 {
		return [][]time.Duration{ds}
	}
	out := make([][]time.Duration, n)
	for i := range out {
		out[i] = ds[i*len(ds)/n : (i+1)*len(ds)/n]
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// correlation is the Pearson correlation of two equally long series.
func correlation(x, y []float64) float64 {
	mx, my := mean(x), mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		sxy += (x[i] - mx) * (y[i] - my)
		sxx += (x[i] - mx) * (x[i] - mx)
		syy += (y[i] - my) * (y[i] - my)
	}
	return sxy / math.Sqrt(sxx*syy)
}

// hostRef times a fixed slice of work of the kind both processes do per
// request: 1000 encoding/json round trips of a decision result (~2 ms).
// The timed phase takes this reading at every chunk boundary, outside the
// chunk, and prints the readings beside the chunks' throughput: a run on a
// slowed host shows a higher median reading.
func hostRef() time.Duration {
	holds := true
	res := api.DecisionResult{Op: api.OpCertainOrder, Engine: "exact", SpecVersion: 3, Holds: &holds}
	start := time.Now()
	for i := 0; i < 1000; i++ {
		b, err := json.Marshal(&res)
		if err != nil {
			panic(err)
		}
		if err := json.Unmarshal(b, &res); err != nil {
			panic(err)
		}
	}
	return time.Since(start)
}
