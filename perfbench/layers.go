package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"kadop/internal/metrics"
	"kadop/internal/xmltree"
)

// rpcProcs are the request kinds reported one by one; any other lands
// in rpc.other.
var rpcProcs = []string{"find-node", "index:dpp:append", "dpp:root", "stream:dpp:block", "query:answer", "index:dir:put", "dir:get", "append"}

// parityBound is the relative difference the parity guard tolerates
// between traced and untraced operations: the largest bound the
// benchmark allows an end-to-end metric.
const parityBound = 0.25

// metricName turns a request name into a metric-name component.
func metricName(s string) string {
	return strings.NewReplacer(":", "_", "-", "_").Replace(s)
}

// spanTotals accumulates count, duration and items per key.
type spanTotals struct {
	n     int
	dur   time.Duration
	items int
}

// traceReport derives the per-layer metrics from the recorded spans,
// the query results and the window's counters, runs the parity guard
// and writes the spans and the self-time summary.
func (b *bench) traceReport() error {
	t := b.tr
	opKind := map[uint64]string{}
	ops := map[uint64]bool{}
	var docs, queries int
	for _, s := range t.spans {
		if s.Layer != layerOp {
			continue
		}
		ops[s.ID] = true
		if s.Name == "publish" {
			opKind[s.ID] = "publish"
			docs += s.N
		} else {
			opKind[s.ID] = "query"
			queries++
		}
	}
	perDoc := func(x float64) float64 { return ratio(x, float64(docs)) }
	perQuery := func(x float64) float64 { return ratio(x, float64(queries)) }
	perOp := func(x float64) float64 { return ratio(x, float64(docs+queries)) }

	// Totals by layer, name and operation kind.
	type key struct {
		layer layer
		name  string
		kind  string
	}
	tot := map[key]*spanTotals{}
	add := func(k key, s span) {
		st := tot[k]
		if st == nil {
			st = &spanTotals{}
			tot[k] = st
		}
		st.n++
		st.dur += time.Duration(s.End - s.Start)
		st.items += s.N
	}
	for _, s := range t.spans {
		kind := opKind[s.Op]
		add(key{s.Layer, s.Name, kind}, s)
		add(key{s.Layer, s.Name, ""}, s)
		add(key{s.Layer, "*", kind}, s)
		add(key{s.Layer, "*", ""}, s)
	}
	get := func(l layer, name, kind string) spanTotals {
		if st := tot[key{l, name, kind}]; st != nil {
			return *st
		}
		return spanTotals{}
	}
	writes := func(l layer, kind string) spanTotals {
		var out spanTotals
		for _, name := range []string{"append", "apply-batch", "delete", "delete-term"} {
			st := get(l, name, kind)
			out.n += st.n
			out.dur += st.dur
			out.items += st.items
		}
		return out
	}
	set := func(name string, v float64, unit string) { b.layers[name] = metric{Value: v, Unit: unit} }

	// internal/store: writes, reads, space.
	below, above := writes(layerStoreBelow, "publish"), writes(layerStoreAbove, "publish")
	set("store.commits_per_doc", perDoc(float64(below.n)), "count")
	allBelow := writes(layerStoreBelow, "")
	set("store.ops_per_commit", ratio(float64(allBelow.items), float64(allBelow.n)), "count")
	set("store.write_busy_s_per_doc", perDoc(below.dur.Seconds()), "s")
	set("store.coalescer_wait_s_per_doc", perDoc((above.dur - below.dur).Seconds()), "s")
	set("store.snapshot_opens_per_query", perQuery(float64(get(layerStoreAbove, "snapshot-open", "query").n)), "count")
	snap := get(layerSnapshot, "*", "query")
	set("store.scan_busy_s_per_query", perQuery(snap.dur.Seconds()), "s")
	set("store.scan_ns_per_posting", ratio(float64(snap.dur.Nanoseconds()), float64(snap.items)), "ns")
	live := 0
	for _, name := range []string{"get", "scan", "count"} {
		live += get(layerStoreAbove, name, "query").n
	}
	set("store.live_reads_per_query", perQuery(float64(live)), "count")
	set("store.disk_bytes_per_posting", ratio(float64(b.diskBytes), float64(b.postings)), "B")

	// internal/dht: routing, RPCs, traffic.
	set("dht.find_node_per_doc", perDoc(float64(get(layerClient, "find-node", "publish").n)), "count")
	set("dht.find_node_per_query", perQuery(float64(get(layerClient, "find-node", "query").n)), "count")
	known := map[string]bool{}
	for _, proc := range rpcProcs {
		known[proc] = true
		c, s := get(layerClient, proc, ""), get(layerServer, proc, "")
		b.rpcMetrics(metricName(proc), c.n, c.dur, s.dur, perOp)
	}
	var oc, os_ spanTotals
	for k, st := range tot {
		if k.kind != "" || k.name == "*" || known[k.name] {
			continue
		}
		switch k.layer {
		case layerClient:
			oc.n += st.n
			oc.dur += st.dur
		case layerServer:
			os_.dur += st.dur
		}
	}
	b.rpcMetrics("other", oc.n, oc.dur, os_.dur, perOp)
	client, server := get(layerClient, "*", ""), get(layerServer, "*", "")
	set("rpc.transport_overhead_s_per_op", perOp((client.dur - server.dur).Seconds()), "s")
	set("rpc.retries", float64(b.retries), "count")
	windowDocs, windowQueries := 0, 0
	for _, bs := range b.batches {
		windowDocs += bs.docs
	}
	if b.opt.workload != "ingest" {
		windowQueries = len(b.samples)
	}
	for _, class := range []metrics.Class{metrics.Routing, metrics.Index, metrics.Postings, metrics.Control} {
		v := float64(b.traffic[class])
		set("net."+string(class)+"_bytes_per_doc", ratio(v, float64(windowDocs)), "B")
		set("net."+string(class)+"_bytes_per_query", ratio(v, float64(windowQueries)), "B")
	}

	// internal/dpp, internal/blockcache, internal/twigjoin,
	// internal/pattern: per-query actuals from Result.Cost.
	var c struct{ roots, blocks, hits, scanned, cands, pruned, evaluated, elements, useful float64 }
	for _, s := range b.samples {
		c.roots += float64(s.cost.RootFetches)
		c.blocks += float64(s.cost.BlocksFetched)
		c.hits += float64(s.cost.CacheHits)
		c.scanned += float64(s.cost.PostingsScanned)
		c.cands += float64(s.cost.Candidates)
		c.pruned += float64(s.cost.Pruned)
		c.evaluated += float64(s.cost.DocsEvaluated)
		c.elements += float64(s.cost.ElementsScanned)
		c.useful += float64(s.useful)
	}
	nq := float64(len(b.samples))
	set("dpp.root_fetches_per_query", ratio(c.roots, nq), "count")
	set("dpp.blocks_fetched_per_query", ratio(c.blocks, nq), "count")
	set("serve.stream_dpp_block.busy_s_per_query", perQuery(get(layerServer, "stream:dpp:block", "query").dur.Seconds()), "s")
	set("serve.index_dpp_append.busy_s_per_doc", perDoc(get(layerServer, "index:dpp:append", "publish").dur.Seconds()), "s")
	set("blockcache.hit_ratio", ratio(c.hits, c.hits+c.blocks), "fraction")
	set("twigjoin.postings_scanned_per_query", ratio(c.scanned, nq), "count")
	set("twigjoin.pruned_ratio", ratio(c.pruned, c.cands), "fraction")
	for class := 0; class < numClasses; class++ {
		var index, answer []float64
		for _, s := range b.samples {
			if s.class == class {
				index = append(index, ms(s.index))
				answer = append(answer, ms(s.total-s.index))
			}
		}
		set("query."+classNames[class]+"_index_phase_ms", median(index), "ms")
		set("query."+classNames[class]+"_answer_phase_ms", median(answer), "ms")
	}
	set("pattern.docs_evaluated_per_query", ratio(c.evaluated, nq), "count")
	set("pattern.elements_scanned_per_query", ratio(c.elements, nq), "count")
	set("pattern.useful_doc_ratio", ratio(c.useful, c.evaluated), "fraction")
	set("serve.query_answer.busy_s_per_query", perQuery(get(layerServer, "query:answer", "query").dur.Seconds()), "s")

	// internal/xmltree, Go runtime, generator.
	set("xmltree.parse_mb_per_s", b.parseMBps, "MB/s")
	set("go.alloc_bytes_per_op", ratio(float64(b.allocBytes), float64(b.windowOps)), "B")
	if b.opt.workload == "mixed" {
		var lags []float64
		for _, l := range b.lags {
			lags = append(lags, ms(l))
		}
		sort.Float64s(lags)
		lagTail := lags[len(lags)-1]
		if len(lags) > 10 {
			lagTail, _ = tailOf(lags)
		}
		set("gen.lag_tail_ms", lagTail, "ms")
	}

	// Self time per layer, and the overhead of tracing itself.
	self := t.selfTimes(ops)
	for l := layer(0); l < numLayers; l++ {
		set("self."+layerNames[l]+"_s_per_op", perOp(self[l].Seconds()), "s")
	}
	set("trace.overhead_frac", b.overhead(), "fraction")

	if err := b.parity(get(layerStoreBelow, "apply-batch", "").n, get(layerStoreAbove, "snapshot-open", "").n); err != nil {
		b.fail("parity: %v", err)
	}
	b.fact("traced operations: %d publish docs, %d queries, %d spans", docs, queries, len(t.spans))
	return b.writeTrace(self, docs+queries)
}

func (b *bench) rpcMetrics(name string, calls int, client, server time.Duration, perOp func(float64) float64) {
	b.layers["rpc."+name+".calls_per_op"] = metric{Value: perOp(float64(calls)), Unit: "count"}
	b.layers["rpc."+name+".client_s_per_op"] = metric{Value: perOp(client.Seconds()), Unit: "s"}
	b.layers["rpc."+name+".server_s_per_op"] = metric{Value: perOp(server.Seconds()), Unit: "s"}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// overhead compares traced with untraced operations of the same run:
// per-document batch time for publishing, else the mean over query
// classes of the ratio of median latencies.
func (b *bench) overhead() float64 {
	if b.opt.workload == "ingest" {
		var tr, un [2]float64 // seconds, docs
		for _, bs := range b.batches {
			if bs.traced {
				tr[0] += bs.dur.Seconds()
				tr[1] += float64(bs.docs)
			} else {
				un[0] += bs.dur.Seconds()
				un[1] += float64(bs.docs)
			}
		}
		return ratio(ratio(tr[0], tr[1]), ratio(un[0], un[1])) - 1
	}
	var sum float64
	for class := 0; class < numClasses; class++ {
		var tr, un []float64
		for _, s := range b.samples {
			if s.class != class {
				continue
			}
			if s.traced {
				tr = append(tr, ms(s.lat))
			} else {
				un = append(un, ms(s.lat))
			}
		}
		sum += ratio(median(tr), median(un))
	}
	return sum/numClasses - 1
}

// parity is the behavioural half of the parity guard: the traced run
// must take the same paths as an untraced one.
func (b *bench) parity(applyBatches, snapshotOpens int) error {
	switch b.opt.workload {
	case "ingest":
		if applyBatches == 0 {
			return fmt.Errorf("no ApplyBatch below the coalescer: group commit was bypassed")
		}
		// Publishing is serial, so per-batch traffic deltas are exact.
		var tr, un [2]float64
		for _, bs := range b.batches {
			var bytes int64
			for _, v := range bs.traffic {
				bytes += v
			}
			if bs.traced {
				tr[0] += float64(bytes)
				tr[1] += float64(bs.docs)
			} else {
				un[0] += float64(bytes)
				un[1] += float64(bs.docs)
			}
		}
		if d := relDiff(ratio(tr[0], tr[1]), ratio(un[0], un[1])); d > parityBound {
			return fmt.Errorf("traffic per document differs by %.2f between traced and untraced batches", d)
		}
		b.fact("parity: ApplyBatch calls %d, traffic per doc traced %.0f B vs untraced %.0f B", applyBatches, ratio(tr[0], tr[1]), ratio(un[0], un[1]))
		return nil
	case "query":
		if snapshotOpens == 0 {
			return fmt.Errorf("no snapshot opened: reads bypassed the snapshot path")
		}
		// A static corpus makes a query's join and answer work fixed, so
		// every traced execution must match the untraced ones of the
		// same query.
		ref := map[string]sample{}
		for _, s := range b.samples {
			if !s.traced {
				ref[s.text] = s
			}
		}
		compared := 0
		for _, s := range b.samples {
			r, ok := ref[s.text]
			if !s.traced || !ok {
				continue
			}
			compared++
			a, c := s.cost, r.cost
			if a.PostingsScanned != c.PostingsScanned || a.IndexMatches != c.IndexMatches || a.DocsEvaluated != c.DocsEvaluated || a.Answers != c.Answers {
				return fmt.Errorf("query %s: traced cost %+v, untraced %+v", s.text, a, c)
			}
		}
		b.fact("parity: snapshot opens %d, %d traced queries match their untraced cost counts", snapshotOpens, compared)
		return nil
	default:
		if snapshotOpens == 0 {
			return fmt.Errorf("no snapshot opened: reads bypassed the snapshot path")
		}
		b.fact("parity: snapshot opens %d, ApplyBatch calls %d (cost counts not compared: the corpus grows)", snapshotOpens, applyBatches)
		return nil
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	return abs(a-b) / max(abs(a), abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// parseRate times the benchmark's own parse of the corpus.
func parseRate(c *corpus) float64 {
	var bytes int64
	start := time.Now()
	for _, d := range c.docs {
		if _, err := xmltree.ParseBytes(d.XML); err == nil {
			bytes += int64(len(d.XML))
		}
	}
	return float64(bytes) / 1e6 / time.Since(start).Seconds()
}

// writeTrace writes the spans (one JSON object per line) and a summary
// of self time per layer under the output directory.
func (b *bench) writeTrace(self [numLayers]time.Duration, ops int) error {
	dir := filepath.Join(b.opt.out, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.opt.workload, b.opt.seed))
	if err := b.tr.writeSpans(base + ".spans.jsonl"); err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "layer self time over %d traced operations\n", ops)
	for l := layer(0); l < numLayers; l++ {
		fmt.Fprintf(&sb, "%-12s %10.3f ms total %10.4f ms/op\n", layerNames[l], ms(self[l]), ratio(ms(self[l]), float64(ops)))
	}
	b.fact("spans written to %s.spans.jsonl", base)
	return os.WriteFile(base+".self.txt", []byte(sb.String()), 0o644)
}
