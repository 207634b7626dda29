package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kadop/internal/dht"
	"kadop/internal/metrics"
	"kadop/internal/postings"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// This file holds the traced run's instrumentation: thin wrappers the
// benchmark installs around the program's layer boundaries (transport
// calls and streams, the handler each endpoint serves, the store above
// and below the write coalescer, and every store snapshot). Each
// wrapper records a span per call: layer, name, start, end, the
// operation it belongs to and its parent span. Untraced runs install
// none of it.
//
// Parents are found without touching the program:
//   - a query carries its operation in a context value the benchmark
//     sets at QueryContext, which the program passes down to every
//     transport call it makes for the query;
//   - publish calls take no context, so calls with no operation on
//     their context belong to the traced publish batch in flight (one
//     publisher runs at a time);
//   - a server span finds its client span through the registry of
//     calls in flight, keyed by sender, destination and request
//     content. Every call registers, traced or not, and a server takes
//     the oldest matching entry, so concurrent identical requests pair
//     off one to one instead of all landing on a traced one;
//   - store and snapshot spans take the innermost open span of their
//     goroutine (server handlers and store calls run synchronously in
//     the goroutine that serves the request).

type layer int

const (
	layerOp layer = iota
	layerClient
	layerServer
	layerStoreAbove
	layerStoreBelow
	layerSnapshot
	numLayers
)

var layerNames = [numLayers]string{"op", "rpc_client", "rpc_server", "store_above", "store_below", "snapshot"}

// span is one recorded interval. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Layer  layer  `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// N is the batch size of a store write or the postings a read
	// delivered.
	N int `json:"n,omitempty"`
}

// frame identifies an open span and its operation; op 0 marks a call of
// an untraced operation.
type frame struct{ id, op uint64 }

type opKey struct{}

// callKey matches a server-side request to the client call that sent
// it.
type callKey struct {
	from, to string
	typ      dht.MsgType
	proc     string
	key      string
	target   dht.ID
	blob     uint64
}

var blobSeed = maphash.MakeSeed()

func keyOf(to string, m dht.Message) callKey {
	return callKey{from: m.From.Addr, to: to, typ: m.Type, proc: m.Proc, key: m.Key, target: m.Target, blob: maphash.Bytes(blobSeed, m.Blob)}
}

type tracer struct {
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span

	gmu      sync.Mutex
	gstack   map[uint64][]frame
	inflight map[callKey][]frame
	// open counts frames on goroutine stacks; zero lets store calls
	// skip the goroutine lookup.
	open atomic.Int64

	publishOp atomic.Pointer[frame]
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), gstack: map[uint64][]frame{}, inflight: map[callKey][]frame{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// beginOp opens an operation (a query or a publish batch); its span id
// is the operation id.
func (t *tracer) beginOp() (frame, int64) {
	id := t.ids.Add(1)
	return frame{id: id, op: id}, t.now()
}

func (t *tracer) endOp(f frame, name string, start int64, n int) {
	t.record(span{ID: f.id, Op: f.op, Layer: layerOp, Name: name, Start: start, End: t.now(), N: n})
}

// withOp marks ctx as belonging to operation f; the zero frame marks
// an untraced operation, whose calls must not fall back to the publish
// batch in flight.
func withOp(ctx context.Context, f frame) context.Context {
	return context.WithValue(ctx, opKey{}, f)
}

// goid returns the current goroutine's id from its stack header.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// top returns the innermost traced span open on this goroutine.
func (t *tracer) top() (frame, uint64, bool) {
	if t.open.Load() == 0 {
		return frame{}, 0, false
	}
	g := goid()
	t.gmu.Lock()
	defer t.gmu.Unlock()
	st := t.gstack[g]
	if len(st) == 0 {
		return frame{}, g, false
	}
	return st[len(st)-1], g, true
}

func (t *tracer) push(g uint64, f frame) {
	t.gmu.Lock()
	t.gstack[g] = append(t.gstack[g], f)
	t.gmu.Unlock()
	t.open.Add(1)
}

func (t *tracer) pop(g uint64) {
	t.gmu.Lock()
	st := t.gstack[g]
	if len(st) <= 1 {
		delete(t.gstack, g)
	} else {
		t.gstack[g] = st[:len(st)-1]
	}
	t.gmu.Unlock()
	t.open.Add(-1)
}

// clientParent resolves the parent of an outgoing call.
func (t *tracer) clientParent(ctx context.Context) (frame, bool) {
	if f, ok := ctx.Value(opKey{}).(frame); ok {
		return f, f.id != 0
	}
	if f, _, ok := t.top(); ok {
		return f, true
	}
	if p := t.publishOp.Load(); p != nil {
		return *p, true
	}
	return frame{}, false
}

// storeParent resolves the parent of a store call: the goroutine's
// innermost span, or for writes the traced publish batch in flight
// (a publisher writes its own slice of the index without an RPC).
func (t *tracer) storeParent(write bool) (frame, uint64, bool) {
	f, g, ok := t.top()
	if ok {
		return f, g, true
	}
	if p := t.publishOp.Load(); write && p != nil {
		if g == 0 {
			g = goid()
		}
		return *p, g, true
	}
	return frame{}, 0, false
}

func (t *tracer) register(k callKey, f frame) {
	t.gmu.Lock()
	t.inflight[k] = append(t.inflight[k], f)
	t.gmu.Unlock()
}

func (t *tracer) unregister(k callKey, id uint64) {
	t.gmu.Lock()
	defer t.gmu.Unlock()
	fs := t.inflight[k]
	for i, f := range fs {
		if f.id == id {
			fs = append(fs[:i], fs[i+1:]...)
			break
		}
	}
	if len(fs) == 0 {
		delete(t.inflight, k)
	} else {
		t.inflight[k] = fs
	}
}

// take removes and returns the oldest call in flight under k.
func (t *tracer) take(k callKey) (frame, bool) {
	t.gmu.Lock()
	defer t.gmu.Unlock()
	fs := t.inflight[k]
	if len(fs) == 0 {
		return frame{}, false
	}
	if len(fs) == 1 {
		delete(t.inflight, k)
	} else {
		t.inflight[k] = fs[1:]
	}
	return fs[0], true
}

func rpcName(m dht.Message) string {
	if m.Proc != "" {
		return m.Proc
	}
	return m.Type.String()
}

// ---- transport -------------------------------------------------------

// metricsSource is what dht.NewNode type-asserts on its transport to
// find the traffic collector; the wrapper must keep it visible.
type metricsSource interface{ Metrics() *metrics.Collector }

type tracedTransport struct {
	inner dht.Transport
	t     *tracer
}

func (t *tracer) wrapTransport(tr dht.Transport) dht.Transport {
	return &tracedTransport{inner: tr, t: t}
}

func (w *tracedTransport) Addr() string { return w.inner.Addr() }
func (w *tracedTransport) Close() error { return w.inner.Close() }

// Metrics forwards the inner transport's collector.
func (w *tracedTransport) Metrics() *metrics.Collector {
	if m, ok := w.inner.(metricsSource); ok {
		return m.Metrics()
	}
	return nil
}

func (w *tracedTransport) Serve(h dht.Handler) error {
	return w.inner.Serve(&tracedHandler{inner: h, t: w.t, addr: w.inner.Addr()})
}

func (w *tracedTransport) Call(ctx context.Context, to dht.Contact, req dht.Message) (dht.Message, error) {
	parent, traced := w.t.clientParent(ctx)
	id := w.t.ids.Add(1)
	k := keyOf(to.Addr, req)
	w.t.register(k, frame{id: id, op: parent.op})
	start := w.t.now()
	resp, err := w.inner.Call(ctx, to, req)
	w.t.unregister(k, id)
	if traced {
		w.t.record(span{ID: id, Parent: parent.id, Op: parent.op, Layer: layerClient, Name: rpcName(req), Start: start, End: w.t.now()})
	}
	return resp, err
}

func (w *tracedTransport) OpenStream(ctx context.Context, to dht.Contact, req dht.Message) (dht.MsgStream, error) {
	parent, traced := w.t.clientParent(ctx)
	id := w.t.ids.Add(1)
	k := keyOf(to.Addr, req)
	w.t.register(k, frame{id: id, op: parent.op})
	s := span{ID: id, Parent: parent.id, Op: parent.op, Layer: layerClient, Name: rpcName(req), Start: w.t.now()}
	st, err := w.inner.OpenStream(ctx, to, req)
	if err != nil {
		w.t.unregister(k, id)
		if traced {
			s.End = w.t.now()
			w.t.record(s)
		}
		return nil, err
	}
	return &tracedStream{inner: st, t: w.t, key: k, s: s, traced: traced}, nil
}

// tracedStream ends its client span when the stream ends or is closed.
type tracedStream struct {
	inner  dht.MsgStream
	t      *tracer
	key    callKey
	s      span
	traced bool
	once   sync.Once
}

func (s *tracedStream) finish() {
	s.once.Do(func() {
		s.t.unregister(s.key, s.s.ID)
		if s.traced {
			s.s.End = s.t.now()
			s.t.record(s.s)
		}
	})
}

func (s *tracedStream) Recv() (dht.Message, error) {
	m, err := s.inner.Recv()
	if err != nil {
		s.finish()
	}
	return m, err
}

func (s *tracedStream) Close() {
	s.inner.Close()
	s.finish()
}

type tracedHandler struct {
	inner dht.Handler
	t     *tracer
	addr  string
}

func (h *tracedHandler) enter(req dht.Message) (span, uint64, bool) {
	parent, ok := h.t.take(keyOf(h.addr, req))
	if !ok || parent.op == 0 {
		return span{}, 0, false
	}
	s := span{ID: h.t.ids.Add(1), Parent: parent.id, Op: parent.op, Layer: layerServer, Name: rpcName(req), Start: h.t.now()}
	g := goid()
	h.t.push(g, frame{id: s.ID, op: s.Op})
	return s, g, true
}

func (h *tracedHandler) leave(s span, g uint64) {
	h.t.pop(g)
	s.End = h.t.now()
	h.t.record(s)
}

func (h *tracedHandler) HandleCall(from dht.Contact, req dht.Message) dht.Message {
	s, g, ok := h.enter(req)
	if !ok {
		return h.inner.HandleCall(from, req)
	}
	defer h.leave(s, g)
	return h.inner.HandleCall(from, req)
}

func (h *tracedHandler) HandleStream(from dht.Contact, req dht.Message, send func(dht.Message) error) error {
	s, g, ok := h.enter(req)
	if !ok {
		return h.inner.HandleStream(from, req, send)
	}
	defer h.leave(s, g)
	return h.inner.HandleStream(from, req, send)
}

// ---- store -------------------------------------------------------------

var errNoSnapshot = errors.New("perfbench: wrapped store has no snapshots")

// tracedStore wraps a store at one side of the coalescer. It forwards
// store.Batcher and store.Snapshotter, so the coalescer still group
// commits through ApplyBatch and the node still reads from snapshots;
// the wrapper above the coalescer also wraps each returned snapshot.
type tracedStore struct {
	inner store.Store
	t     *tracer
	layer layer
}

func (t *tracer) wrapStore(st store.Store, l layer) store.Store {
	return &tracedStore{inner: st, t: t, layer: l}
}

// timed runs fn as a span named name when the call has a traced
// parent.
func (s *tracedStore) timed(name string, write bool, n int, fn func() error) error {
	parent, g, ok := s.t.storeParent(write)
	if !ok {
		return fn()
	}
	sp := span{ID: s.t.ids.Add(1), Parent: parent.id, Op: parent.op, Layer: s.layer, Name: name, Start: s.t.now(), N: n}
	s.t.push(g, frame{id: sp.ID, op: sp.Op})
	err := fn()
	s.t.pop(g)
	sp.End = s.t.now()
	s.t.record(sp)
	return err
}

func (s *tracedStore) Append(term string, ps postings.List) error {
	return s.timed("append", true, 1, func() error { return s.inner.Append(term, ps) })
}

func (s *tracedStore) ApplyBatch(b *store.Batch) error {
	return s.timed("apply-batch", true, b.Len(), func() error { return store.ApplyBatch(s.inner, b) })
}

func (s *tracedStore) Delete(term string, p sid.Posting) error {
	return s.timed("delete", true, 1, func() error { return s.inner.Delete(term, p) })
}

func (s *tracedStore) DeleteTerm(term string) error {
	return s.timed("delete-term", true, 1, func() error { return s.inner.DeleteTerm(term) })
}

func (s *tracedStore) Get(term string) (l postings.List, err error) {
	err = s.timed("get", false, 0, func() error { l, err = s.inner.Get(term); return err })
	return l, err
}

func (s *tracedStore) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	return s.timed("scan", false, 0, func() error { return s.inner.Scan(term, from, fn) })
}

func (s *tracedStore) Count(term string) (n int, err error) {
	err = s.timed("count", false, 0, func() error { n, err = s.inner.Count(term); return err })
	return n, err
}

func (s *tracedStore) Terms() ([]string, error) { return s.inner.Terms() }
func (s *tracedStore) Close() error             { return s.inner.Close() }

func (s *tracedStore) Snapshot() (store.Snapshot, error) {
	ss, ok := s.inner.(store.Snapshotter)
	if !ok {
		return nil, errNoSnapshot
	}
	if s.layer != layerStoreAbove {
		return ss.Snapshot()
	}
	var snap store.Snapshot
	err := s.timed("snapshot-open", false, 0, func() (err error) { snap, err = ss.Snapshot(); return err })
	if err != nil {
		return nil, err
	}
	return &tracedSnap{inner: snap, t: s.t}, nil
}

// tracedSnap records every read made through a snapshot.
type tracedSnap struct {
	inner store.Snapshot
	t     *tracer
}

func (s *tracedSnap) read(name string, fn func() (int, error)) error {
	parent, g, ok := s.t.storeParent(false)
	if !ok {
		_, err := fn()
		return err
	}
	sp := span{ID: s.t.ids.Add(1), Parent: parent.id, Op: parent.op, Layer: layerSnapshot, Name: name, Start: s.t.now()}
	s.t.push(g, frame{id: sp.ID, op: sp.Op})
	n, err := fn()
	s.t.pop(g)
	sp.End, sp.N = s.t.now(), n
	s.t.record(sp)
	return err
}

func (s *tracedSnap) Get(term string) (l postings.List, err error) {
	err = s.read("get", func() (int, error) { l, err = s.inner.Get(term); return len(l), err })
	return l, err
}

func (s *tracedSnap) Scan(term string, from sid.Posting, fn func(sid.Posting) bool) error {
	return s.read("scan", func() (int, error) {
		n := 0
		err := s.inner.Scan(term, from, func(p sid.Posting) bool {
			n++
			return fn(p)
		})
		return n, err
	})
}

func (s *tracedSnap) Count(term string) (n int, err error) {
	err = s.read("count", func() (int, error) { n, err = s.inner.Count(term); return 0, err })
	return n, err
}

func (s *tracedSnap) Terms() ([]string, error) { return s.inner.Terms() }
func (s *tracedSnap) Close() error             { return s.inner.Close() }

// checkForwarding is the structural half of the parity guard: every
// wrapper must still expose what the program type-asserts on it.
func checkForwarding(d *deployment) error {
	for i, p := range d.peers {
		if err := checkPeer(i, p.Node()); err != nil {
			return err
		}
	}
	return nil
}

func checkPeer(i int, nd *dht.Node) error {
	if nd.Metrics() == nil {
		return fmt.Errorf("peer %d: transport wrapper hides the traffic collector", i)
	}
	st := nd.Store()
	for {
		if _, ok := st.(store.Batcher); !ok {
			return fmt.Errorf("peer %d: %T does not forward store.Batcher", i, st)
		}
		if _, ok := st.(store.Snapshotter); !ok {
			return fmt.Errorf("peer %d: %T does not forward store.Snapshotter", i, st)
		}
		switch w := st.(type) {
		case interface{ Unwrap() store.Store }:
			st = w.Unwrap()
		case *tracedStore:
			st = w.inner
		default:
			return nil
		}
	}
}

// ---- output ------------------------------------------------------------

// writeSpans writes every span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per layer, the summed self time of the spans of
// the given operations: each span's duration minus the part of its
// interval its children cover.
func (t *tracer) selfTimes(ops map[uint64]bool) [numLayers]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && ops[s.Op] {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out [numLayers]time.Duration
	for _, s := range t.spans {
		if !ops[s.Op] {
			continue
		}
		out[s.Layer] += time.Duration(s.End - s.Start - covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
