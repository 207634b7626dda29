package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"kadop/internal/blockcache"
	"kadop/internal/dht"
	"kadop/internal/kadop"
	"kadop/internal/sid"
	"kadop/internal/store"
)

// peerCount is the number of full peers of the deployment.
const peerCount = 16

// deployment is one durable in-process KadoP cluster: 16 full peers on
// a simulated network with the zero link model (messages are encoded
// and charged per traffic class, but never delayed), each with a disk
// B+-tree at FsyncAlways behind a write coalescer in a per-peer
// directory, DPP on, replication 1 and no background timers.
type deployment struct {
	net     *dht.Network
	peers   []*kadop.Peer
	clients []*kadop.Peer
	dir     string
	tr      *tracer // nil in untraced runs: no wrapper is installed
}

// peerConfig is the configuration every full peer runs with.
//
// It sets no DataDir, so neither the peer-state journal nor the DPP
// root-state file is written; the index is still durable, in the
// B+-tree newDeployment opens. The root-state file is rewritten through
// a new file, fsync and rename on every DPP append, and on a shared
// host that metadata commit waits behind other tenants' disk traffic:
// with it, the publish rate of the same code moved between 30 and 43
// docs/s from run to run, and without it between 50 and 52 (10 s ingest
// runs on a 2-core VM).
func peerConfig() kadop.Config {
	return kadop.Config{
		UseDPP: true,
		Fsync:  store.FsyncAlways,
		// The same coalescer settings as the experiment clusters: a 2ms
		// linger so batches form independently of disk speed.
		Batching: kadop.BatchingConfig{Enabled: true, MaxDelay: 2 * time.Millisecond},
	}
}

// newDeployment builds and bootstraps the cluster under dir. The store
// is set up as the TCP peer constructor sets it up with batching on,
// with the tracer's wrappers (when tr is non-nil) below and above the
// coalescer and around every transport endpoint.
func newDeployment(dir string, tr *tracer) (*deployment, error) {
	d := &deployment{net: dht.NewNetwork(), dir: dir, tr: tr}
	var nodes []*dht.Node
	for i := 0; i < peerCount; i++ {
		dataDir := filepath.Join(dir, fmt.Sprintf("peer%02d", i))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			d.close()
			return nil, err
		}
		cfg := peerConfig()
		bt, err := store.OpenBTreeOptions(filepath.Join(dataDir, "index.bt"), store.Options{Fsync: cfg.Fsync})
		if err != nil {
			d.close()
			return nil, err
		}
		var st store.Store = bt
		if tr != nil {
			st = tr.wrapStore(st, layerStoreBelow)
		}
		st = store.NewCoalescer(st, store.CoalesceOptions{MaxOps: cfg.Batching.MaxOps, MaxDelay: cfg.Batching.MaxDelay})
		if tr != nil {
			st = tr.wrapStore(st, layerStoreAbove)
		}
		nd, err := dht.NewNode(d.endpoint(), st, dht.Config{Seed: int64(i + 1)})
		if err != nil {
			st.Close()
			d.close()
			return nil, err
		}
		p, err := kadop.NewPeer(nd, sid.PeerID(i+1), cfg)
		if err != nil {
			nd.Close()
			st.Close()
			d.close()
			return nil, err
		}
		p.AttachStore(st)
		d.peers = append(d.peers, p)
		nodes = append(nodes, nd)
	}
	for i := 1; i < len(nodes); i++ {
		if err := nodes[i].Bootstrap(nodes[0].Self()); err != nil {
			d.close()
			return nil, fmt.Errorf("bootstrap peer %d: %w", i, err)
		}
	}
	for _, nd := range nodes {
		if _, err := nd.Lookup(nd.Self().ID); err != nil {
			d.close()
			return nil, err
		}
	}
	for _, p := range d.peers {
		if err := p.Announce(); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *deployment) endpoint() dht.Transport {
	ep := d.net.NewEndpoint()
	if d.tr != nil {
		return d.tr.wrapTransport(ep)
	}
	return ep
}

// addClient joins a query client: a DHT client node (it owns no keys,
// so every posting list it reads crosses the network) with a DPP
// posting-block cache of cacheBytes.
func (d *deployment) addClient(cacheBytes int64) (*kadop.Peer, error) {
	nd, err := dht.NewNode(d.endpoint(), store.NewMem(), dht.Config{Client: true, Seed: int64(100 + len(d.clients))})
	if err != nil {
		return nil, err
	}
	if err := nd.Bootstrap(d.peers[0].Node().Self()); err != nil {
		nd.Close()
		return nil, err
	}
	cfg := kadop.Config{UseDPP: true}
	if cacheBytes > 0 {
		// One shard, so the whole budget is one LRU: the default 16
		// shards would cap every block at a sixteenth of a cache this
		// small and reject the large blocks outright.
		cfg.DPP.Cache = blockcache.New(blockcache.Options{MaxBytes: cacheBytes, Shards: 1})
		cfg.DPP.Cache.SetCollector(nd.Metrics())
	}
	p, err := kadop.NewPeer(nd, sid.PeerID(1000+len(d.clients)), cfg)
	if err != nil {
		nd.Close()
		return nil, err
	}
	d.clients = append(d.clients, p)
	return p, nil
}

// close shuts every peer down (stores checkpoint and close). The data
// directory stays for the disk-usage reading.
func (d *deployment) close() error {
	var first error
	for _, p := range append(d.clients, d.peers...) {
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.clients, d.peers = nil, nil
	return first
}

// diskBytes sums the sizes of every file under the data directory.
func (d *deployment) diskBytes() (int64, error) {
	var n int64
	err := filepath.Walk(d.dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// dropClient closes a query client and removes it from the deployment.
func (d *deployment) dropClient(p *kadop.Peer) error {
	for i, c := range d.clients {
		if c == p {
			d.clients = append(d.clients[:i], d.clients[i+1:]...)
			break
		}
	}
	return p.Close()
}
