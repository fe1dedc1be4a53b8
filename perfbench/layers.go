package main

import (
	"time"
)

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerMetrics derives the per-layer table from the traced pass: spans
// around the router and shard handlers, the decomposed polls, the facade
// side-calls and the swap-stage shadow chain, plus the servers' own
// counters. plain is the untraced pass, for the tracing overhead.
func layerMetrics(in *inputs, p *plan, plain, traced *passOut, tr *tracer) (map[string]metric, error) {
	ref, err := deriveLog(in.pristine)
	if err != nil {
		return nil, err
	}
	facade, err := timeFacade(ref, p.ops, 16, 6, tr)
	if err != nil {
		return nil, err
	}
	if err := shadowSwaps(ref, in.batches[:min(traced.batchesRun, shadowTicks)], tr); err != nil {
		return nil, err
	}
	if err := restoreSideCalls(in, tr); err != nil {
		return nil, err
	}

	L := make(map[string]metric)
	tr.link()
	kids := tr.children()
	byURI := make(map[string]op, len(p.ops))
	for _, o := range p.ops {
		byURI[o.path] = o
	}
	var self, fan, overhead []float64
	for _, s := range tr.byName("router") {
		t := us(selfTime(s, kids[s.ID]))
		o := byURI[s.URI]
		if o.kind.fanOut() {
			fan = append(fan, t)
		} else {
			self = append(self, t)
		}
		if f, ok := facade[facadeKey{o.kind, o.user}]; ok && len(kids[s.ID]) == 1 && f > 0 {
			overhead = append(overhead, float64(kids[s.ID][0].dur())/float64(f))
		}
	}
	L["router.self_us_p50"] = pct(self, 0.5, "us")
	L["router.fanout_us_p50"] = pct(fan, 0.5, "us")
	handler := durations(tr.byName("shard"), us)
	L["server.handler_us_p50"] = pct(handler, 0.5, "us")
	L["server.handler_us_p99"] = pct(handler, 0.99, "us")
	L["server.miss_overhead_ratio"] = pct(overhead, 0.5, "ratio")

	rd := delta(traced.router[0], traced.router[1])
	L["router.attempts_per_req"] = metric{
		Value: (rd["trustrouter_proxied_total"] + rd["trustrouter_retries_total"] + rd["trustrouter_hedges_total"]) / float64(len(p.ops)),
		Unit:  "ratio", n: len(p.ops),
	}
	sd := delta(traced.shards[0], traced.shards[1])
	lookups := sd["trustd_result_cache_hits_total"] + sd["trustd_result_cache_misses_total"]
	L["server.cache_hit_ratio"] = ratio(sd["trustd_result_cache_hits_total"], lookups)
	L["server.cache_bytes"] = metric{Value: traced.shards[1]["trustd_result_cache_bytes"], Unit: "bytes", n: numShards}
	swaps := delta(traced.shards[0], traced.shards[2])
	carried := swaps["trustd_cache_carryover_total"]
	L["server.carryover_frac"] = ratio(carried, carried+swaps["trustd_cache_carryover_dropped_total"])
	L["server.delta_rows"] = metric{Value: traced.shards[2]["trustd_graph_delta_rows"] / numShards, Unit: "count", n: numShards}

	for _, algo := range []string{"appleseed", "moletrust", "tidaltrust"} {
		L["propagation."+algo+"_ms_p50"] = pct(durations(tr.byName("propagation."+algo), ms), 0.5, "ms")
	}
	L["propagation.compose_us_p50"] = pct(durations(tr.byName("propagation.compose"), us), 0.5, "us")
	for _, algo := range sketchAlgos {
		L["propagation.sketch_build_ms."+algo.String()] = pct(durations(tr.byName("propagation.sketch_build."+algo.String()), ms), 0.5, "ms")
	}
	L["propagation.sketch_refresh_ms_p50"] = pct(durations(tr.byName("propagation.sketch_refresh"), ms), 0.5, "ms")
	L["anomaly.update_ms_p50"] = pct(durations(tr.byName("anomaly.update"), ms), 0.5, "ms")
	L["server.rank_ms_p50"] = pct(durations(tr.byName("server.rank"), ms), 0.5, "ms")

	// Ingest stages: only ticks of the measured ingest (not set-up's or
	// the probe's first), and only polls that found events.
	from := traced.ingestFrom.Sub(tr.epoch).Nanoseconds()
	polls := make(map[int64]bool)
	for _, s := range tr.byName("poll") {
		if s.Start >= from {
			polls[s.ID] = true
		}
	}
	stage := func(name string) []float64 {
		var xs []float64
		for _, s := range tr.byName(name) {
			if polls[s.Parent] {
				xs = append(xs, ms(s.dur()))
			}
		}
		return xs
	}
	for name, key := range map[string]string{
		"store.read": "store.read_ms_p50", "store.replay": "store.replay_ms_p50",
		"ratings.snapshot": "ratings.snapshot_ms_p50",
		"core.update":      "core.update_ms_p50", "core.web": "core.web_ms_p50",
		"server.swap": "server.swap_ms_p50",
	} {
		L[key] = pct(stage(name), 0.5, "ms")
	}
	L["server.swap_ms_p90"] = pct(stage("server.swap"), 0.9, "ms")
	dirty := make([]float64, len(traced.dirty))
	for i, d := range traced.dirty {
		dirty[i] = float64(d)
	}
	L["core.dirty_users"] = metric{Value: mean(dirty), Unit: "count", n: len(dirty)}
	// The freshness tail of the untraced pass. It has no bound: a few
	// ticks a slow machine phase hits set it, and six runs of identical
	// code on ingest-read read 365 to 596 ms; see README.md.
	L["ingest.visible_p90_ms"] = pct(plain.visible, 0.9, "ms")
	L["ingest.batches_per_poll"] = metric{Value: mean(traced.bpp), Unit: "ratio", n: len(traced.bpp)}
	L["ingest.append_late_ms_p99"] = pct(traced.appendLate, 0.99, "ms")
	L["ingest.read_late_ms_p99"] = pct(traced.r.late, 0.99, "ms")

	secs := func(d time.Duration) float64 { return d.Seconds() }
	L["boot.open_s"] = metric{Value: mean(durations(tr.byName("boot.open"), secs)), Unit: "s", n: numShards}
	L["checkpoint.read_s"] = pct(durations(tr.byName("checkpoint.read"), secs), 0.5, "s")
	L["core.restore_s"] = pct(durations(tr.byName("core.restore"), secs), 0.5, "s")
	L["boot.warmup_s"] = pct(durations(tr.byName("boot.warmup"), secs), 0.5, "s")

	L["runtime.gc_cycles"] = metric{Value: traced.gc[1].cycles - traced.gc[0].cycles, Unit: "count", n: 1}
	L["runtime.gc_cpu_frac"] = ratio(traced.gc[1].gcCPU-traced.gc[0].gcCPU, traced.gc[1].totalCPU-traced.gc[0].totalCPU)

	off, on := endToEnd(p, plain), endToEnd(p, traced)
	for _, k := range []string{"read_p50_ms", "read_p95_ms", "visible_p50_ms"} {
		L["trace.overhead."+k] = metric{Value: on[k].Value - off[k].Value, Unit: "ms", n: on[k].n}
	}
	return L, nil
}

func durations(spans []span, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = unit(s.dur())
	}
	return out
}

// delta returns after − before per counter.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

func ratio(num, den float64) metric {
	if den == 0 {
		return metric{Unit: "ratio"}
	}
	return metric{Value: num / den, Unit: "ratio", n: int(den)}
}
