// Command perfbench is the repository benchmark: it builds a durable
// in-process KadoP deployment from the public constructors, drives one
// seeded workload against it for a fixed time, checks every answer
// against the reference evaluator, and prints the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) as the last
// line of its output, one JSON object.
//
//	go run . --workload query --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"kadop/internal/kadop"
	"kadop/internal/metrics"
	"kadop/internal/obs/cost"
	"kadop/internal/sid"
	"kadop/internal/twigjoin"
)

// Workload sizing, from runs on a 2-core x86 VM at fsync=always: bulk
// publishing runs at ~50 docs/s, most of it spent waiting on the DPP
// append path (coalescer linger, WAL commit); selective queries take
// ~1.5 ms and broad ones ~9-13 ms. A 128-document round takes ~2.5 s,
// so a 30 s window holds ~12 rounds; five set-ups of the 96-document
// base corpus take ~13 s.
const (
	baseRecords   = 2400 // query and mixed base corpus: 96 documents
	ingestRecords = 3200 // ingest corpus, published once per round: 128 documents
	batchDocs     = 16   // documents per PublishXMLBatch call
	setupRuns     = 5    // set-ups per run; setup_s is their median
	mixedRate     = 10   // open-loop queries per second in mixed
	// maxDocsPerSec sizes mixed's second corpus, so the window ends
	// before the corpus does.
	maxDocsPerSec = 50
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: ingest, query, mixed, or all to run the three in turn")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run (per-layer metrics), 0 = end-to-end metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for data and trace output")
	flag.Parse()
	o.trace = traceFlag == 1
	workloads := []string{o.workload}
	if o.workload == "all" {
		workloads = []string{"ingest", "query", "mixed"}
	}
	code := 0
	for _, w := range workloads {
		o.workload = w
		c, err := run(o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
		}
		code = max(code, c)
	}
	os.Exit(code)
}

func run(o options) (int, error) {
	if o.seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}
	work, err := filepath.Abs(filepath.Join(o.out, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 2, err
	}
	defer os.RemoveAll(work)
	b := &bench{opt: o, work: work, e2e: map[string]metric{}, layers: map[string]metric{}, traffic: map[metrics.Class]int64{}}
	if o.trace {
		b.tr = newTracer()
	}
	switch o.workload {
	case "ingest":
		err = b.ingest()
	case "query":
		err = b.query()
	case "mixed":
		err = b.mixed()
	default:
		return 2, fmt.Errorf("unknown --workload %q (want ingest, query, mixed or all)", o.workload)
	}
	if err != nil {
		return 2, err
	}
	if b.tr != nil {
		if err := b.traceReport(); err != nil {
			return 2, err
		}
	}
	return b.report(), nil
}

// metric is one reported value with its unit and, for quantiles, the
// sample count and percentile it was read at.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	n      int
	pct    float64
	chunks int // sub-windows a tail is the median over
}

// sample is one timed query.
type sample struct {
	class  int
	lat    time.Duration // as the user saw it (open loop: from the due time)
	total  time.Duration // Result.Total
	index  time.Duration // Result.IndexTime
	cost   cost.Snapshot
	useful int // candidate documents with at least one answer
	traced bool
	text   string
}

// batchSample is one timed publish batch.
type batchSample struct {
	docs    int
	dur     time.Duration
	traced  bool
	traffic map[metrics.Class]int64
}

type bench struct {
	opt  options
	work string
	tr   *tracer
	d    *deployment

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	samples   []sample
	batches   []batchSample
	uris      uriMap
	// pubRates holds docs/s of every publish batch; publish_docs_per_s
	// is their upper quartile (see pubRate).
	pubRates []float64

	setupTimes []float64
	e2e        map[string]metric
	layers     map[string]metric
	facts      []string

	// Window accounting for the per-layer report.
	window     time.Duration
	windowOps  int
	allocBytes uint64
	traffic    map[metrics.Class]int64
	retries    int64
	lags       []time.Duration
	workingSet int64
	cacheBytes int64
	bytesIn    int64 // serialized XML bytes published in total
	postings   int64 // postings stored after the run
	diskBytes  int64
	parseMBps  float64
	pool       []querySpec
}

func (b *bench) fail(format string, args ...any) {
	b.failN(1, format, args...)
}

// failN records n failed operations (a failed publish batch fails each
// of its documents).
func (b *bench) failN(n int, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed += n
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) fact(format string, args ...any) {
	b.facts = append(b.facts, fmt.Sprintf(format, args...))
}

// ---- publishing ----------------------------------------------------------

// publish sends docs through PublishXMLBatch in batchDocs-sized calls
// until they run out or the deadline passes (zero: no deadline). Every
// other batch is traced in a traced run. It returns the documents
// published and the elapsed time.
func (b *bench) publish(p *kadop.Peer, c *corpus, from int, deadline time.Time, record bool) (int, time.Duration) {
	col := b.d.net.Collector
	start := time.Now()
	n := from
	for i := 0; n < len(c.docs); i++ {
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		batch := c.docs[n:min(n+batchDocs, len(c.docs))]
		traced := record && b.tr != nil && i%2 == 1
		var f frame
		var opStart int64
		if traced {
			f, opStart = b.tr.beginOp()
			b.tr.publishOp.Store(&f)
		}
		var before map[metrics.Class]int64
		if record {
			before = col.ClassBytes()
		}
		// Queries running concurrently can see a document before its
		// batch returns, so its URI is registered under the key the peer
		// will assign (documents are numbered in publish order); the
		// returned keys are checked against it.
		first := p.DocumentCount()
		b.mu.Lock()
		for j, d := range batch {
			b.uris[sid.DocKey{Peer: p.ID(), Doc: sid.DocID(first + j)}] = d.URI
		}
		b.mu.Unlock()
		t := time.Now()
		keys, err := p.PublishXMLBatch(batch)
		dur := time.Since(t)
		if traced {
			b.tr.publishOp.Store(nil)
			b.tr.endOp(f, "publish", opStart, len(batch))
		}
		b.mu.Lock()
		b.attempted += len(batch)
		b.pubRates = append(b.pubRates, float64(len(batch))/dur.Seconds())
		for j, k := range keys {
			if b.uris[k] != batch[j].URI {
				err = fmt.Errorf("document %s got key %v, expected it in publish order", batch[j].URI, k)
			}
		}
		if record {
			b.batches = append(b.batches, batchSample{docs: len(batch), dur: dur, traced: traced, traffic: delta(col.ClassBytes(), before)})
		}
		b.mu.Unlock()
		if err != nil {
			b.failN(len(batch), "publish %s: %v", batch[0].URI, err)
		}
		n += len(batch)
		b.bytesIn += c.size(n) - c.size(n-len(batch))
	}
	return n - from, time.Since(start)
}

func delta(now, before map[metrics.Class]int64) map[metrics.Class]int64 {
	out := map[metrics.Class]int64{}
	for k, v := range now {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// ---- querying ------------------------------------------------------------

// runQuery executes one pool query and checks its answers: exactly
// want, or within [lo, hi] when the corpus is growing (want nil).
func (b *bench) runQuery(ctx context.Context, p *kadop.Peer, spec querySpec, traced bool, want, lo, hi answerSet) (sample, bool) {
	var f frame
	var opStart int64
	if b.tr != nil {
		if traced {
			f, opStart = b.tr.beginOp()
		}
		ctx = withOp(ctx, f)
	}
	start := time.Now()
	res, err := p.QueryContext(ctx, spec.q, kadop.QueryOptions{Strategy: kadop.Conventional})
	lat := time.Since(start)
	if traced {
		b.tr.endOp(f, classNames[spec.class], opStart, 1)
	}
	b.mu.Lock()
	b.attempted++
	b.mu.Unlock()
	if err != nil {
		b.fail("query %s: %v", spec.text, err)
		return sample{}, false
	}
	got, err := b.answers(res.Matches)
	switch {
	case err != nil:
		b.fail("query %s: %v", spec.text, err)
		return sample{}, false
	case want != nil && !got.equal(want):
		b.fail("query %s: %d answers, oracle has %d", spec.text, len(got), len(want))
		return sample{}, false
	case want == nil && !got.within(lo, hi):
		b.fail("query %s: %d answers outside the oracle bounds [%d, %d]", spec.text, len(got), len(lo), len(hi))
		return sample{}, false
	}
	useful := map[sid.DocKey]bool{}
	for _, m := range res.Matches {
		useful[m.Doc] = true
	}
	return sample{class: spec.class, lat: lat, total: res.Total, index: res.IndexTime, cost: res.Cost, useful: len(useful), traced: traced, text: spec.text}, true
}

// answers converts matches under the lock the publisher takes to
// extend the URI map.
func (b *bench) answers(ms []twigjoin.Match) (answerSet, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.uris.answers(ms)
}

func (b *bench) addSample(s sample) {
	b.mu.Lock()
	b.samples = append(b.samples, s)
	b.mu.Unlock()
}

// verify runs every pool query reps[class] times from one client,
// checking each against want, and returns the elapsed time. Samples
// are recorded when keep is set.
func (b *bench) verify(p *kadop.Peer, want []answerSet, reps [numClasses]int, keep bool) time.Duration {
	start := time.Now()
	for r := 0; r < max(reps[0], reps[1]); r++ {
		for i, spec := range b.pool {
			if r >= reps[spec.class] {
				continue
			}
			if s, ok := b.runQuery(context.Background(), p, spec, false, want[i], nil, nil); ok && keep {
				b.addSample(s)
			}
		}
	}
	return time.Since(start)
}

// expectAll computes the oracle answers of every pool query.
func (b *bench) expectAll(o *oracle) []answerSet {
	out := make([]answerSet, len(b.pool))
	for i, s := range b.pool {
		out[i] = o.expect(s.q)
	}
	return out
}

// ---- set-up --------------------------------------------------------------

// setupCluster builds a deployment and, with a base corpus, publishes
// it from peer 0, measures the mix's block working set with a probe
// client whose cache holds everything, then joins the query client
// with a cache of a quarter of that working set and warms it with
// every pool query. It returns the query client.
func (b *bench) setupCluster(dir string, base *corpus, want []answerSet) (*kadop.Peer, error) {
	d, err := newDeployment(dir, b.tr)
	if err != nil {
		return nil, err
	}
	b.d = d
	b.uris = uriMap{}
	b.bytesIn = 0
	if base == nil {
		return nil, nil
	}
	b.publish(d.peers[0], base, 0, time.Time{}, false)
	probe, err := d.addClient(1 << 30)
	if err != nil {
		return nil, err
	}
	b.verify(probe, want, [numClasses]int{1, 1}, false)
	b.workingSet = probe.BlockCache().Stats().Bytes
	if err := d.dropClient(probe); err != nil {
		return nil, err
	}
	b.cacheBytes = max(b.workingSet/4, 1)
	client, err := d.addClient(b.cacheBytes)
	if err != nil {
		return nil, err
	}
	b.verify(client, want, [numClasses]int{1, 1}, false)
	return client, nil
}

// setup runs setupRuns set-ups of the query workloads, keeps the last
// and records the median set-up time and the median batch rate of the
// base publishes.
func (b *bench) setup(base *corpus, want []answerSet) (*kadop.Peer, error) {
	var client *kadop.Peer
	for i := 0; i < setupRuns; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("setup%d", i))
		start := time.Now()
		c, err := b.setupCluster(dir, base, want)
		if err != nil {
			if b.d != nil {
				b.d.close()
			}
			return nil, err
		}
		b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
		client = c
		if i < setupRuns-1 {
			// The directory stays until the run ends: deleting it now would
			// queue file-system journal work into the next set-up's fsyncs.
			if err := b.d.close(); err != nil {
				return nil, err
			}
		}
	}
	b.e2e["setup_s"] = metric{Value: median(b.setupTimes), Unit: "s", n: len(b.setupTimes)}
	b.e2e["publish_docs_per_s"] = b.pubRate()
	if b.tr != nil {
		if err := checkForwarding(b.d); err != nil {
			return nil, fmt.Errorf("parity: %w", err)
		}
	}
	return client, nil
}

// ---- workloads -------------------------------------------------------------

// ingest: one publisher bulk-publishes a fixed seeded corpus into an
// empty cluster, again and again on fresh clusters until the window's
// publishing time is used (at least setupRuns times). After each round
// every pool query is checked against the oracle and timed on a client
// with no block cache. Rates, set-up times and tails are medians over
// the rounds; the last round's cluster gives heap and disk.
func (b *bench) ingest() error {
	c, err := makeCorpus(b.opt.seed, ingestRecords, "ingest")
	if err != nil {
		return err
	}
	if b.pool, err = queryPool(b.opt.seed); err != nil {
		return err
	}
	b.factCorpus("ingest", c, len(c.docs))
	o := newOracle()
	o.add(c, len(c.docs))
	want := b.expectAll(o)
	if err := b.checkFig3(c, len(c.docs), want); err != nil {
		return err
	}
	if b.tr != nil {
		b.parseMBps = parseRate(c)
	}
	var published time.Duration
	// Query throughput is the median over rounds of each round's
	// checks, so a burst of machine noise costs at most its rounds.
	var roundQPS []float64
	verified := 0
	for round := 0; round < setupRuns || published < b.seconds(); round++ {
		if b.d != nil {
			// Kept on disk until the run ends, as in setup.
			if err := b.d.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		if _, err := b.setupCluster(filepath.Join(b.work, fmt.Sprintf("round%d", round)), nil, nil); err != nil {
			return err
		}
		b.setupTimes = append(b.setupTimes, time.Since(start).Seconds())
		mark := b.markWindow()
		n, dur := b.publish(b.d.peers[0], c, 0, time.Time{}, true)
		b.addWindow(mark, n)
		published += dur
		client, err := b.d.addClient(0)
		if err != nil {
			return err
		}
		before := len(b.samples)
		took := b.verify(client, want, [numClasses]int{4, 4}, true)
		verified += len(b.samples) - before
		roundQPS = append(roundQPS, float64(len(b.samples)-before)/took.Seconds())
	}
	b.e2e["setup_s"] = metric{Value: median(b.setupTimes), Unit: "s", n: len(b.setupTimes)}
	b.e2e["publish_docs_per_s"] = b.pubRate()
	b.e2e["query_qps"] = metric{Value: median(roundQPS), Unit: "queries/s", n: verified}
	if b.tr != nil {
		if err := checkForwarding(b.d); err != nil {
			return fmt.Errorf("parity: %w", err)
		}
	}
	return b.finish()
}

// query: one closed-loop client on the cache-limited query client
// over a static base corpus; every answer is checked exactly.
//
// One client, not two: two closed-loop clients keep both cores of the
// 2-core machine busy, so their latencies queue behind each other and
// every core a neighbour steals shows up amplified. Over five seeds on
// the same machine and hour, one client's spread of broad_p50_ms was
// 0.16 of the median against 0.28 for two, and of query_qps 0.16
// against 0.33.
func (b *bench) query() error {
	base, want, err := b.prepareBase()
	if err != nil {
		return err
	}
	client, err := b.setup(base, want)
	if err != nil {
		return err
	}
	m := newMix(b.opt.seed, b.pool)
	mark := b.markWindow()
	start := mark.at
	deadline := start.Add(b.seconds())
	// Completions are counted per whole second of the window;
	// query_qps is the median over those seconds, so a burst of machine
	// noise costs at most the seconds it covers.
	perSec := make([]float64, int(b.opt.seconds))
	for k := 0; time.Now().Before(deadline); k++ {
		i := m.next()
		if s, ok := b.runQuery(context.Background(), client, b.pool[i], b.tr != nil && k%2 == 1, want[i], nil, nil); ok {
			b.addSample(s)
			if sec := int(time.Since(start) / time.Second); sec < len(perSec) {
				perSec[sec]++
			}
		}
	}
	elapsed := time.Since(start)
	b.addWindow(mark, len(b.samples))
	qps := float64(len(b.samples)) / elapsed.Seconds()
	if len(perSec) > 0 {
		qps = median(perSec)
	}
	b.e2e["query_qps"] = metric{Value: qps, Unit: "queries/s", n: len(b.samples)}
	if err := b.checkFig3(base, len(base.docs), want); err != nil {
		return err
	}
	return b.finish()
}

// mixed: the query mix at a fixed open-loop rate, each query timed from
// its due time, while another peer bulk-publishes a second corpus.
// Answers during the window must lie between the oracle over the base
// corpus and the oracle over everything that may be published; after
// the window the mix runs once more on the final corpus and must match
// the oracle exactly.
func (b *bench) mixed() error {
	base, want, err := b.prepareBase()
	if err != nil {
		return err
	}
	more, err := makeCorpus(b.opt.seed+7919, (int(b.opt.seconds*maxDocsPerSec)+batchDocs)*25, "more")
	if err != nil {
		return err
	}
	b.factCorpus("second", more, len(more.docs))
	o := newOracle()
	o.add(base, len(base.docs))
	o.add(more, len(more.docs))
	hi := b.expectAll(o)
	client, err := b.setup(base, want)
	if err != nil {
		return err
	}
	m := newMix(b.opt.seed, b.pool)
	b.pubRates = nil
	mark := b.markWindow()
	start := mark.at
	deadline := start.Add(b.seconds())
	var published int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		published, _ = b.publish(b.d.peers[1], more, 0, deadline, true)
	}()
	interval := time.Second / mixedRate
	var done int
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		b.lags = append(b.lags, time.Since(due))
		i := m.next()
		s, ok := b.runQuery(context.Background(), client, b.pool[i], b.tr != nil && k%2 == 1, nil, want[i], hi[i])
		if ok {
			// Open loop: latency counts from the due time, so a stall
			// charges the wait it imposes on the queries behind it.
			s.lat = time.Since(due)
			b.addSample(s)
		}
		done++
	}
	elapsed := time.Since(start)
	wg.Wait()
	b.addWindow(mark, done+published)
	b.e2e["query_qps"] = metric{Value: float64(done) / elapsed.Seconds(), Unit: "queries/s", n: done}
	b.e2e["publish_docs_per_s"] = b.pubRate()
	if published == len(more.docs) {
		b.fact("note: the publisher ran out of corpus before the window ended")
	}
	final := newOracle()
	final.add(base, len(base.docs))
	final.add(more, published)
	wantFinal := b.expectAll(final)
	b.verify(client, wantFinal, [numClasses]int{1, 1}, false)
	return b.finish()
}

// prepareBase generates the base corpus, the query pool and the
// oracle's answers over the base corpus.
func (b *bench) prepareBase() (*corpus, []answerSet, error) {
	base, err := makeCorpus(b.opt.seed, baseRecords, "base")
	if err != nil {
		return nil, nil, err
	}
	if b.pool, err = queryPool(b.opt.seed); err != nil {
		return nil, nil, err
	}
	b.factCorpus("base", base, len(base.docs))
	o := newOracle()
	o.add(base, len(base.docs))
	return base, b.expectAll(o), nil
}

// checkFig3 checks the oracle itself: over a whole generated corpus the
// Figure 3 query has exactly RareCount answers.
func (b *bench) checkFig3(c *corpus, n int, want []answerSet) error {
	if n != len(c.docs) {
		return nil
	}
	for i, s := range b.pool {
		if s.text == fig3Query && len(want[i]) != c.rareCount {
			return fmt.Errorf("oracle: Figure 3 query has %d answers, corpus planted %d", len(want[i]), c.rareCount)
		}
	}
	return nil
}

func (b *bench) seconds() time.Duration {
	return time.Duration(b.opt.seconds * float64(time.Second))
}

func (b *bench) factCorpus(name string, c *corpus, n int) {
	b.fact("corpus %s: %d docs, %d XML bytes", name, n, c.size(n))
}

// windowMark snapshots the counters a measured window accumulates.
type windowMark struct {
	at      time.Time
	alloc   uint64
	traffic map[metrics.Class]int64
	retries int64
}

func (b *bench) markWindow() windowMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	col := b.d.net.Collector
	return windowMark{at: time.Now(), alloc: ms.TotalAlloc, traffic: col.ClassBytes(), retries: col.Events(metrics.EventRetry)}
}

// addWindow adds the window since m, with ops operations, to the
// run's runtime and traffic accounting.
func (b *bench) addWindow(m windowMark, ops int) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	col := b.d.net.Collector
	b.window += time.Since(m.at)
	b.windowOps += ops
	b.allocBytes += ms.TotalAlloc - m.alloc
	for class, v := range delta(col.ClassBytes(), m.traffic) {
		b.traffic[class] += v
	}
	b.retries += col.Events(metrics.EventRetry) - m.retries
}

// finish computes the latency metrics, reads the live heap, closes the
// deployment and measures its disk footprint.
func (b *bench) finish() error {
	for class := 0; class < numClasses; class++ {
		var lats []float64
		for _, s := range b.samples {
			if s.class == class {
				lats = append(lats, ms(s.lat))
			}
		}
		name := classNames[class]
		tail, pct, chunks := b.tail(class)
		if chunks == 0 {
			return fmt.Errorf("%s: no sub-window has the 11 samples a tail needs", name)
		}
		b.e2e[name+"_p50_ms"] = metric{Value: median(lats), Unit: "ms", n: len(lats), pct: 50}
		b.e2e[name+"_tail_ms"] = metric{Value: tail, Unit: "ms", n: len(lats), pct: pct, chunks: chunks}
	}
	n, err := countPostings(b.d)
	if err != nil {
		return err
	}
	b.postings = n
	runtime.GC()
	var msx runtime.MemStats
	runtime.ReadMemStats(&msx)
	b.e2e["heap_mb"] = metric{Value: float64(msx.HeapAlloc) / 1e6, Unit: "MB"}
	b.layers["go.gc_cpu_frac"] = metric{Value: msx.GCCPUFraction, Unit: "fraction"}
	if err := b.d.close(); err != nil {
		return err
	}
	disk, err := b.d.diskBytes()
	if err != nil {
		return err
	}
	b.diskBytes = disk
	b.fact("final cluster: %d XML bytes published, %d postings stored, %d bytes on disk", b.bytesIn, b.postings, disk)
	b.e2e["disk_bytes_per_input_byte"] = metric{Value: float64(disk) / float64(b.bytesIn), Unit: "B/B"}
	return nil
}

// countPostings sums the postings every peer stores.
func countPostings(d *deployment) (int64, error) {
	var n int64
	for _, p := range d.peers {
		st := p.Node().Store()
		terms, err := st.Terms()
		if err != nil {
			return 0, err
		}
		for _, t := range terms {
			c, err := st.Count(t)
			if err != nil {
				return 0, err
			}
			n += int64(c)
		}
	}
	return n, nil
}

// ---- output ----------------------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// pubRate is the publish_docs_per_s metric: the upper quartile of the
// per-batch rates. Every batch does the same kind of work, and machine
// noise (a neighbour's disk flush, a stolen core) only ever slows a
// batch down, so the fastest quarter tracks the program's own cost
// even when noise hits most of the run; a change that slows every
// batch moves it just as it moves the median.
func (b *bench) pubRate() metric {
	return metric{Value: quantile(b.pubRates, 0.75), Unit: "docs/s", n: len(b.pubRates), pct: 75}
}

// quantile returns the q-quantile of xs, interpolating between the
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailChunk is the size of the sub-windows tails are taken over: in
// each, the highest percentile with at least ten samples beyond it is
// the 95th. A single percentile that far out over a whole run moves
// with every burst of machine noise; the median over sub-windows does
// not.
const tailChunk = 200

// tail returns a class's tail latency: the class's samples, in the
// order they completed, are cut into tailChunk-sized sub-windows (a
// short remainder joins the last); in each, the highest percentile
// with at least ten samples beyond it; then the median over the
// sub-windows, with the median percentile and the sub-window count.
func (b *bench) tail(class int) (float64, float64, int) {
	var lats []float64
	for _, s := range b.samples {
		if s.class == class {
			lats = append(lats, ms(s.lat))
		}
	}
	k := len(lats) / tailChunk
	if k == 0 && len(lats) > 10 {
		k = 1
	}
	var tails, pcts []float64
	for i := 0; i < k; i++ {
		hi := (i + 1) * tailChunk
		if i == k-1 {
			hi = len(lats)
		}
		chunk := append([]float64(nil), lats[i*tailChunk:hi]...)
		sort.Float64s(chunk)
		t, p := tailOf(chunk)
		tails = append(tails, t)
		pcts = append(pcts, p)
	}
	return median(tails), median(pcts), k
}

// tailOf returns the highest nearest-rank percentile of sorted xs that
// has at least ten samples beyond it, and that percentile.
func tailOf(sorted []float64) (float64, float64) {
	n := len(sorted)
	rank := n - 10 // 1-based rank with exactly ten samples above
	return sorted[rank-1], 100 * float64(rank) / float64(n)
}

// report prints the run's facts, a metric table and the result line,
// and returns the exit code.
func (b *bench) report() int {
	b.fact("seed %d, workload %s, trace %v, window %.2fs", b.opt.seed, b.opt.workload, b.opt.trace, b.window.Seconds())
	b.fact("block working set %d bytes, query-client cache %d bytes (%.2fx larger than cache)", b.workingSet, b.cacheBytes, float64(b.workingSet)/float64(max(b.cacheBytes, 1)))
	b.fact("GOMAXPROCS %d, %s, %s, cpu %s", runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOARCH, cpuModel())
	b.fact("setup times %v s", b.setupTimes)
	for _, f := range b.facts {
		fmt.Println("fact:", f)
	}
	for _, f := range b.failures {
		fmt.Println("FAILED:", f)
	}
	set := b.e2e
	if b.opt.trace {
		set = b.layers
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	out := map[string]metric{}
	for _, k := range names {
		m := set[k]
		extra := ""
		if m.n > 0 {
			extra = fmt.Sprintf("  n=%d", m.n)
		}
		if m.pct > 0 {
			extra += fmt.Sprintf("  p%.1f", m.pct)
		}
		if m.chunks > 0 {
			extra += fmt.Sprintf(" (median over %d sub-windows)", m.chunks)
		}
		fmt.Printf("%-44s %14.6g %-10s%s\n", k, m.Value, m.Unit, extra)
		out[k] = m
	}
	correct := b.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, max(b.attempted, 1), b.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.Index(line, ":"); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}
