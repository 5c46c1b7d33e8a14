package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/server"
)

// node is one serving process of a deployment, run inside this process: a
// System over its own partitioned data directory (none on a router) behind
// the real internal/server handler on a loopback listener.
type node struct {
	sys   *tkplq.System
	store *tkplq.PartitionedStore // nil on a router
	dir   string
	srv   *server.Server
	http  *http.Server
	url   string
	done  chan error // Serve's return value
}

// deployment is everything set-up builds for one workload: a standalone
// server, or two shards and their router.
type deployment struct {
	data   []*node // the nodes that hold records: one standalone, or the shards
	router *node   // nil when standalone
	setup  setupTimes
}

// setupTimes are the components of setup_s that the per-layer list reports.
type setupTimes struct {
	load  time.Duration   // ingest + seal of every preload batch, all nodes
	seals []time.Duration // each seal
	open  time.Duration   // reopening with VerifyFull, all nodes
}

// front is the node clients talk to.
func (d *deployment) front() *node {
	if d.router != nil {
		return d.router
	}
	return d.data[0]
}

func discardLog(string, ...any) {}

// loadNode bulk-loads recs into a fresh partitioned data directory through
// the live write path — System.Ingest in loadBatch-sized batches, one seal
// per batch — then closes it and reopens it with full verification, as a
// restart would. It returns the reopened store and a System over it.
func loadNode(space *tkplq.Space, dir string, recs []tkplq.Record, opts tkplq.Options, loadBatch int, tm *setupTimes) (*tkplq.System, *tkplq.PartitionedStore, error) {
	start := time.Now()
	store, table, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	sys, err := tkplq.NewSystem(space, table, opts)
	if err != nil {
		_ = store.Close()
		return nil, nil, err
	}
	sys.SetPersister(store)
	for len(recs) > 0 {
		n := min(loadBatch, len(recs))
		if err := sys.Ingest(recs[:n]); err != nil {
			_ = store.Close()
			return nil, nil, err
		}
		recs = recs[n:]
		sealStart := time.Now()
		if err := sys.Snapshot(); err != nil {
			_ = store.Close()
			return nil, nil, err
		}
		tm.seals = append(tm.seals, time.Since(sealStart))
	}
	if err := store.Close(); err != nil {
		return nil, nil, err
	}
	tm.load += time.Since(start)

	start = time.Now()
	store, table, err = tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir, Verify: tkplq.VerifyFull})
	if err != nil {
		return nil, nil, err
	}
	tm.open += time.Since(start)
	sys, err = tkplq.NewSystem(space, table, opts)
	if err != nil {
		_ = store.Close()
		return nil, nil, err
	}
	sys.SetPersister(store)
	return sys, store, nil
}

// serve starts the node's handler on its listener.
func (n *node) serve(ln net.Listener, cfg server.Config) error {
	cfg.Logf = discardLog
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	n.srv = srv
	n.http = &http.Server{Handler: srv.Handler()}
	n.url = "http://" + ln.Addr().String()
	n.done = make(chan error, 1)
	go func() { n.done <- n.http.Serve(ln) }()
	return nil
}

// deployStandalone sets up one durable server over recs.
func deployStandalone(space *tkplq.Space, dir string, recs []tkplq.Record, z sizing, snapshotEvery int) (*deployment, error) {
	d := &deployment{}
	sys, store, err := loadNode(space, dir, recs, tkplq.Options{}, z.loadBatch, &d.setup)
	if err != nil {
		return nil, err
	}
	n := &node{sys: sys, store: store, dir: dir}
	d.data = []*node{n}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, err
	}
	if err := n.serve(ln, server.Config{System: sys, Store: store, SnapshotEvery: snapshotEvery}); err != nil {
		_ = ln.Close()
		d.close()
		return nil, err
	}
	return d, nil
}

// deployCluster sets up two single-worker shards, each over its hash
// partition of recs in its own data directory, and a router in front. The
// listeners come first because the topology names their addresses.
func deployCluster(space *tkplq.Space, dir string, recs []tkplq.Record, z sizing) (*deployment, error) {
	const shards = 2
	d := &deployment{}
	lns := make([]net.Listener, 0, shards+1)
	closeListeners := func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}
	addrs := make([]string, shards)
	for i := 0; i <= shards; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners()
			return nil, err
		}
		lns = append(lns, ln)
		if i < shards {
			addrs[i] = ln.Addr().String()
		}
	}
	topo, err := cluster.New(addrs)
	if err != nil {
		closeListeners()
		return nil, err
	}
	fail := func(err error) (*deployment, error) {
		d.close()
		closeListeners() // closing a listener twice only returns an error
		return nil, err
	}
	for i := 0; i < shards; i++ {
		var own []tkplq.Record
		for _, rec := range recs {
			if topo.Owns(rec.OID, i) {
				own = append(own, rec)
			}
		}
		shardDir := filepath.Join(dir, fmt.Sprintf("shard%d", i))
		sys, store, err := loadNode(space, shardDir, own, tkplq.Options{Workers: 1}, z.loadBatch, &d.setup)
		if err != nil {
			return fail(err)
		}
		n := &node{sys: sys, store: store, dir: shardDir}
		d.data = append(d.data, n)
		if err := n.serve(lns[i], server.Config{System: sys, Store: store, Role: server.RoleShard, Topology: topo, ShardIndex: i}); err != nil {
			return fail(err)
		}
	}
	rsys, err := tkplq.NewSystem(space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		return fail(err)
	}
	d.router = &node{sys: rsys}
	if err := d.router.serve(lns[shards], server.Config{System: rsys, Role: server.RoleRouter, Topology: topo}); err != nil {
		return fail(err)
	}
	return d, nil
}

// close stops every server (router first, so no fan-out is in flight) and
// closes every store. Streams opened against the deployment must be closed
// before: an open /v2/subscribe response keeps Shutdown waiting.
func (d *deployment) close() error {
	var errs []error
	nodes := d.data
	if d.router != nil {
		nodes = append([]*node{d.router}, d.data...)
	}
	for _, n := range nodes {
		if n.http != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			errs = append(errs, n.http.Shutdown(ctx), n.srv.Shutdown(ctx))
			cancel()
			if err := <-n.done; !errors.Is(err, http.ErrServerClosed) {
				errs = append(errs, err)
			}
			n.http = nil
		}
		if n.store != nil {
			errs = append(errs, n.store.Close())
			n.store = nil
		}
	}
	return errors.Join(errs...)
}
