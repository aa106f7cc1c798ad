package main

import (
	"sort"
	"time"
)

// metricDef names a metric and its unit. The two lists below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (a test keeps the two
// in step), and every run reports every name of one list — a metric a
// workload has no source for reads 0 in the per-layer list; the end-to-end
// list is chosen so that every workload has a source for every name.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the database sees; a run reports the median of
// its phases for each. An "op" is the workload's unit of work: a transaction
// in tpcc and chbench, a query in tpch, a statement in sqlmix.
var endToEnd = []metricDef{
	{"setup_s", "s"},           // open + generate + load + attach + settle + warm-up
	{"op_per_s", "1/s"},        // completed ops / measured wall
	{"op_p50_ms", "ms"},        // median op latency
	{"query_geomean_ms", "ms"}, // geomean over the read-only classes of each class's median latency
	{"freshness_p50_ms", "ms"}, // probe insert issued on the primary -> visible on the workspace, median
	{"cpu_ms_per_op", "ms"},    // process user+sys CPU over the measured phase / ops
	{"live_heap_mb", "MB"},     // HeapAlloc after a collection, measured phase over, database open
}

// endToEndValues computes the end-to-end metrics of one untraced phase.
func endToEndValues(def *workloadDef, p *phase, setupS, heapMB float64) map[string]float64 {
	ops := float64(p.ops(def.primary))
	lat := p.pooled(def.primary)
	var readMedians []float64
	for _, c := range def.reads {
		readMedians = append(readMedians, median(p.lat[c]))
	}
	return map[string]float64{
		"setup_s":          setupS,
		"op_per_s":         ops / p.wall.Seconds(),
		"op_p50_ms":        median(lat) / 1e6,
		"query_geomean_ms": geomean(readMedians) / 1e6,
		"freshness_p50_ms": median(p.fresh) / 1e6,
		"cpu_ms_per_op":    p.cpu.Seconds() * 1e3 / ops,
		"live_heap_mb":     heapMB,
	}
}

// perLayer lists the per-layer metrics; the prefix is the module a change
// would have to touch to move the number. README.md says which end-to-end
// metric each should move, on which workload.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// sql: front-end cost of a statement (sqlmix, traced pipeline).
		{name: "sql.prepare_us_p50", unit: "us"},
		{name: "sql.bind_us_p50", unit: "us"},
		{name: "sql.plan_cache_hit_ratio", unit: "ratio"},
		{name: "sql.text_hit_ratio", unit: "ratio"},
		// exec: scans, aggregates, joins and the decoded-vector cache.
		{name: "exec.collect_us_p50", unit: "us"},
		{name: "exec.scaneq_us_p50", unit: "us"},
		{name: "exec.scan_ms_per_query", unit: "ms"},
		{name: "exec.aggregate_ms_per_query", unit: "ms"},
		{name: "exec.join_ms_per_query", unit: "ms"},
		{name: "exec.rows_scanned_per_query", unit: "count"},
		{name: "exec.rows_materialized_per_query", unit: "count"},
		{name: "exec.segments_skipped_ratio", unit: "ratio"},
		{name: "exec.fused_agg_seg_ratio", unit: "ratio"},
		{name: "exec.vec_decodes_per_query", unit: "count"},
		{name: "exec.veccache_hit_ratio", unit: "ratio"},
		{name: "exec.veccache_evictions", unit: "count"},
		{name: "exec.veccache_invalidations", unit: "count"},
		// workload: row-at-a-time plan code in internal/workload/tpch.
		{name: "workload.tpch_self_ms_per_query", unit: "ms"},
		// core: table storage — locks, buffer, index, WAL append, maintenance.
		{name: "core.write_us_p50", unit: "us"},
		{name: "core.point_read_us_p50", unit: "us"},
		{name: "core.flushes", unit: "count"},
		{name: "core.merges", unit: "count"},
		{name: "core.moves", unit: "count"},
		{name: "core.merge_aborts", unit: "count"},
		{name: "core.segments_end", unit: "count"},
		{name: "core.lock_timeouts", unit: "count"},
		{name: "core.idle_cpu_pct", unit: "%"},
		{name: "core.hydrations", unit: "count"},
		// cluster: replication, workspace, blob staging.
		{name: "cluster.durable_wait_us_p50", unit: "us"},
		{name: "cluster.repl_lag_records_max", unit: "count"},
		{name: "cluster.ws_lag_records_max", unit: "count"},
		{name: "cluster.ws_attach_ms", unit: "ms"},
		{name: "cluster.stage_lag_records_end", unit: "count"},
		{name: "cluster.stage_records_per_put", unit: "count"},
		{name: "cluster.stage_drain_ms", unit: "ms"},
		{name: "cluster.link_reconnects", unit: "count"},
		{name: "cluster.link_errors", unit: "count"},
		{name: "cluster.ws_stale_rows", unit: "count"},
		{name: "cluster.failover_stale_rows", unit: "count"},
		// wal: group commit.
		{name: "wal.pages_sealed", unit: "count"},
		{name: "wal.records_per_page", unit: "count"},
		// blob: what crosses the counting store.
		{name: "blob.puts", unit: "count"},
		{name: "blob.put_bytes", unit: "bytes"},
		{name: "blob.gets", unit: "count"},
		{name: "blob.get_bytes", unit: "bytes"},
		{name: "blob.put_bytes_per_user_byte", unit: "ratio"},
		{name: "blob.stored_bytes_per_user_byte", unit: "ratio"},
		// qos: admission control, summed over tenants and resources.
		{name: "qos.waits", unit: "count"},
		{name: "qos.wait_ms", unit: "ms"},
		{name: "qos.sheds", unit: "count"},
		// runtime: allocator and collector.
		{name: "runtime.alloc_kb_per_op", unit: "KB"},
		{name: "runtime.gc_cycles", unit: "count"},
		{name: "runtime.gc_pause_ms_total", unit: "ms"},
		// client: the per-class view of the end-to-end numbers.
		{name: "client.txn_per_s", unit: "1/s"},
		{name: "client.query_per_s", unit: "1/s"},
		{name: "client.freshness_p95_ms", unit: "ms"},
		{name: "client.op_tail_ms", unit: "ms"},
		{name: "client.tail_percentile", unit: "%"},
		{name: "client.rollbacks", unit: "count"},
	}
	for _, c := range txnClasses {
		defs = append(defs, metricDef{name: "client." + c + "_p50_ms", unit: "ms"})
	}
	for _, c := range tpchAllClasses {
		defs = append(defs, metricDef{name: "client." + c + "_p50_ms", unit: "ms"})
	}
	for _, c := range chQueryClasses {
		defs = append(defs, metricDef{name: "client." + c + "_p50_ms", unit: "ms"})
	}
	for _, c := range stmtClasses {
		unit := "us"
		if c == "groupagg" {
			unit = "ms"
		}
		defs = append(defs, metricDef{name: "client." + c + "_p50_" + unit, unit: unit})
	}
	// trace: the span set itself, and each layer's share of the traced
	// operations' time (self time: a span minus what its children cover).
	defs = append(defs, metricDef{name: "trace.overhead_pct", unit: "%"}, metricDef{name: "trace.spans", unit: "count"})
	for _, l := range layerNames {
		defs = append(defs, metricDef{name: "trace." + l + "_self_pct", unit: "%"})
	}
	return defs
}

// ratio is a/b, 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues computes the per-layer metrics of a traced phase: span
// statistics, differences of the engine's own counters over the phase, and a
// few readings that need the system quiet (drain time, idle CPU), taken here.
func layerValues(def *workloadDef, h *harness, p *phase, baseWall time.Duration) map[string]float64 {
	sum := summarize(p.spans)
	drain := h.stageDrain()
	idle := idleCPUPct()
	end := h.snapshot()
	b, a := p.before, p.after
	ops := float64(p.ops(def.primary))
	queries := float64(p.ops(def.reads))
	user := float64(h.userBytes.Load())

	spanP50 := func(key string) float64 { return median(sum.byName[key]) / 1e3 }
	perQueryMs := func(key string) float64 { return ratio(float64(sum.selfByName[key])/1e6, queries) }
	classP50 := func(class string, div float64) float64 { return median(p.lat[class]) / div }
	lat := p.pooled(def.primary)
	fresh := sortedCopy(p.fresh)

	vals := map[string]float64{
		"sql.prepare_us_p50":       spanP50("sql.prepare"),
		"sql.bind_us_p50":          spanP50("sql.bind"),
		"sql.plan_cache_hit_ratio": h.planHitRatio,
		"sql.text_hit_ratio":       h.planTextRatio,

		"exec.collect_us_p50":              spanP50("exec.collect"),
		"exec.scaneq_us_p50":               spanP50("exec.scaneq"),
		"exec.scan_ms_per_query":           perQueryMs("exec.scan"),
		"exec.aggregate_ms_per_query":      perQueryMs("exec.aggregate"),
		"exec.join_ms_per_query":           perQueryMs("exec.join"),
		"exec.rows_scanned_per_query":      ratio(float64(h.scan.RowsScanned), queries),
		"exec.rows_materialized_per_query": ratio(float64(h.scan.RowsMaterialized), queries),
		"exec.segments_skipped_ratio":      ratio(float64(h.scan.SegmentsSkipped), float64(h.scan.SegmentsSkipped+h.scan.SegmentsScanned)),
		"exec.fused_agg_seg_ratio":         ratio(float64(h.scan.FusedAggSegs), float64(h.scan.SegmentsScanned)),
		"exec.vec_decodes_per_query":       ratio(float64(h.scan.VecDecodes), queries),
		"exec.veccache_hit_ratio":          ratio(float64(a.vecHits-b.vecHits), float64(a.vecHits-b.vecHits+a.vecMisses-b.vecMisses)),
		"exec.veccache_evictions":          float64(a.vecEvictions - b.vecEvictions),
		"exec.veccache_invalidations":      float64(a.vecInvalidations - b.vecInvalidations),

		"workload.tpch_self_ms_per_query": perQueryMs("workload.plan"),

		"core.write_us_p50":      spanP50("core.write"),
		"core.point_read_us_p50": spanP50("core.point_read"),
		"core.flushes":           float64(a.flushes - b.flushes),
		"core.merges":            float64(a.merges - b.merges),
		"core.moves":             float64(a.moves - b.moves),
		"core.merge_aborts":      float64(a.mergeAborts - b.mergeAborts),
		"core.segments_end":      float64(a.segments),
		"core.lock_timeouts":     float64(p.timeouts),
		"core.idle_cpu_pct":      idle,
		"core.hydrations":        float64(h.hydrations),

		"cluster.durable_wait_us_p50":   spanP50("cluster.durable_wait"),
		"cluster.repl_lag_records_max":  float64(p.replLagMax),
		"cluster.ws_lag_records_max":    float64(p.wsLagMax),
		"cluster.ws_attach_ms":          h.attach.Seconds() * 1e3,
		"cluster.stage_lag_records_end": float64(a.stageLag),
		"cluster.stage_records_per_put": ratio(float64(a.walHead-b.walHead)-float64(a.stageLag)+float64(b.stageLag), float64(a.stageChunks-b.stageChunks)),
		"cluster.stage_drain_ms":        drain.Seconds() * 1e3,
		"cluster.link_reconnects":       float64(a.linkReconnects - b.linkReconnects),
		"cluster.link_errors":           float64(a.linkErrors),

		"wal.pages_sealed":     float64(a.walPages - b.walPages),
		"wal.records_per_page": ratio(float64(a.walHead-b.walHead), float64(a.walPages-b.walPages)),

		"blob.puts":                       float64(a.blobPuts - b.blobPuts),
		"blob.put_bytes":                  float64(a.blobPutBytes - b.blobPutBytes),
		"blob.gets":                       float64(a.blobGets - b.blobGets),
		"blob.get_bytes":                  float64(a.blobGetBytes - b.blobGetBytes),
		"blob.put_bytes_per_user_byte":    ratio(float64(end.blobPutBytes), user),
		"blob.stored_bytes_per_user_byte": ratio(float64(h.store.storedBytes()), user),

		"qos.waits":   float64(a.qosWaits - b.qosWaits),
		"qos.wait_ms": float64(a.qosWaitNs-b.qosWaitNs) / 1e6,
		"qos.sheds":   float64(a.qosSheds - b.qosSheds),

		"runtime.alloc_kb_per_op":   ratio(float64(p.allocBytes)/1024, ops),
		"runtime.gc_cycles":         float64(p.gcCycles),
		"runtime.gc_pause_ms_total": float64(p.gcPauseNs) / 1e6,

		"client.txn_per_s":        ratio(float64(p.ops(txnClasses)), p.wall.Seconds()),
		"client.query_per_s":      ratio(queries, p.wall.Seconds()),
		"client.freshness_p95_ms": percentile(fresh, 95) / 1e6,
		"client.op_tail_ms":       percentile(lat, tailPercentile(len(lat))) / 1e6,
		"client.tail_percentile":  tailPercentile(len(lat)),
		"client.rollbacks":        float64(p.rollbacks),

		"trace.overhead_pct": 100 * (ratio(p.wall.Seconds(), baseWall.Seconds()) - 1),
		"trace.spans":        float64(sum.spans),
	}
	for _, c := range txnClasses {
		vals["client."+c+"_p50_ms"] = classP50(c, 1e6)
	}
	for _, c := range tpchAllClasses {
		lat := p.lat[c]
		if len(lat) == 0 { // Q7 and Q20 are timed by the after hook
			lat = p.tail[c]
		}
		vals["client."+c+"_p50_ms"] = median(lat) / 1e6
	}
	for _, c := range chQueryClasses {
		vals["client."+c+"_p50_ms"] = classP50(c, 1e6)
	}
	for _, c := range stmtClasses {
		if c == "groupagg" {
			vals["client.groupagg_p50_ms"] = classP50(c, 1e6)
		} else {
			vals["client."+c+"_p50_us"] = classP50(c, 1e3)
		}
	}
	for i, l := range layerNames {
		vals["trace."+l+"_self_pct"] = 100 * ratio(float64(sum.layerSelf[i]), float64(sum.rootNs))
	}
	return vals
}

// undeclared lists the computed names that defs does not declare: a renamed
// metric must not silently vanish from the output.
func undeclared(vals map[string]float64, defs []metricDef) []string {
	declared := make(map[string]bool, len(defs))
	for _, d := range defs {
		declared[d.name] = true
	}
	var missing []string
	for k := range vals {
		if !declared[k] {
			missing = append(missing, k)
		}
	}
	sort.Strings(missing)
	return missing
}
