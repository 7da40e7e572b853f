package main

import (
	"math"
	"runtime/metrics"
	"sort"

	"github.com/xqdb/xqdb"
)

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio divides, reading 0/0 as 0 so an idle layer reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterDelta is the change of a metrics snapshot across a window:
// counters and histogram counts and sums.
type counterDelta struct {
	c        map[string]int64
	histN    map[string]int64
	histSumN map[string]int64
}

func newDelta() counterDelta {
	return counterDelta{c: map[string]int64{}, histN: map[string]int64{}, histSumN: map[string]int64{}}
}

func deltaOf(before, after xqdb.MetricsSnapshot) counterDelta {
	d := newDelta()
	for k, v := range after.Counters {
		d.c[k] = v - before.Counters[k]
	}
	for k, h := range after.Histograms {
		d.histN[k] = h.Count - before.Histograms[k].Count
		d.histSumN[k] = h.SumNanos - before.Histograms[k].SumNanos
	}
	return d
}

// add adds o's changes to d's.
func (d counterDelta) add(o counterDelta) {
	for k, v := range o.c {
		d.c[k] += v
	}
	for k, v := range o.histN {
		d.histN[k] += v
	}
	for k, v := range o.histSumN {
		d.histSumN[k] += v
	}
}

func (d counterDelta) get(name string) float64 { return float64(d.c[name]) }

// rtSample is a reading of the Go runtime's own counters (exported for
// the server process's STATS line).
type rtSample struct {
	GCCPU, TotalCPU, AllocBytes, AllocObjects float64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
}

func readRT() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{val(0), val(1), val(2), val(3)}
}

func (a rtSample) plus(b rtSample) rtSample {
	return rtSample{a.GCCPU + b.GCCPU, a.TotalCPU + b.TotalCPU, a.AllocBytes + b.AllocBytes, a.AllocObjects + b.AllocObjects}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.GCCPU - b.GCCPU, a.TotalCPU - b.TotalCPU, a.AllocBytes - b.AllocBytes, a.AllocObjects - b.AllocObjects}
}
