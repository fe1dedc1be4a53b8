package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit and the sample count it
// summarises.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the order statistics around it (0 when empty). On the small samples
// the freshness metrics take, interpolation keeps a median from jumping
// between two clusters of tick costs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
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

// pct builds a percentile metric over xs.
func pct(xs []float64, q float64, unit string) metric {
	return metric{Value: quantile(xs, q), Unit: unit, n: len(xs)}
}

// parseMetrics picks the named unlabeled series out of Prometheus text.
func parseMetrics(text string, names []string) map[string]float64 {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !want[name] {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// gcSample reads the process's GC cycle count and its GC and total CPU
// seconds.
type gcSample struct{ cycles, gcCPU, totalCPU float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	value := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return gcSample{value(s[0].Value), value(s[1].Value), value(s[2].Value)}
}

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate times a fixed CPU-bound loop. Its reading tells a noisy
// machine phase apart from a regression; it is never compared between
// commits.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return ms(time.Since(start))
}
