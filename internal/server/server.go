// Package server exposes a tkplq.System over a long-running HTTP JSON API:
// the serving layer behind the tkplqd daemon.
//
// Endpoints:
//
//	POST /v2/query   — the one query endpoint: a TkPLQ / density / flow /
//	                   presence query object over a time window, or an
//	                   array of them evaluated as a shared-work batch
//	GET  /v2/subscribe — Server-Sent Events stream of top-k ranking changes
//	                   over a sliding window, evaluated incrementally; identical
//	                   subscriptions share one monitor
//	POST /v1/ingest  — batched uncertain positioning records into the live table
//	POST /v2/partial — internal: one shard's per-object contribution to a
//	                   distributed query (router fan-in; see Role*), answered
//	                   in a binary body (partial_wire.go)
//	GET  /v2/span    — internal: the table's time span, for cluster-wide
//	                   te == 0 resolution
//	POST /v1/snapshot — seal the mutable head into a partition on demand
//	POST /v1/compact — merge runs of small sealed partitions on demand
//	GET  /v1/stats   — engine cache + coalescer + wal counters, server counters,
//	                   table shape, live subscription feeds
//	GET  /healthz    — liveness
//	GET  /readyz     — readiness: 503 with the cause on a poisoned store or
//	                   a follower that has not caught up (routers probe it)
//	POST /v2/replicate, /v2/replicate/ack, /v2/promote — internal: WAL-shipped
//	                   replication stream, follower progress reports, failover
//	                   promotion (see internal/repl)
//
// New decides once, from the role, Config.Store and Config.Replication,
// which handler serves each route: a route the member does not serve (a
// router's per-shard surfaces, persistence without a store, replication
// without a config) gets refuse, a 501 naming why. Handlers keep only the
// checks New cannot make: follower mode (promotion flips it), a shard's
// ownership of each ingested object, and which stats and readiness sections
// to report.
//
// Every request is evaluated under its own context: the per-request budget
// (Config.RequestTimeout) and the client connection are the cancellation
// sources, so a timed-out or disconnected request stops the engine's shard
// workers instead of burning the pool to completion. Every error — including
// 404, 405 and the 503 timeout — is a JSON `{"error": ...}` envelope.
// Concurrent identical queries share one evaluation via the engine's
// query-level request coalescing; the per-response stats carry `coalesced`
// so clients (and the smoke tests) can observe the dedupe.
//
// When the daemon runs with a data directory (Config.Store), ingest is
// durable: System.Ingest writes every accepted batch ahead to the WAL, the
// /v1/stats payload grows `wal` and `storage` sections, POST /v1/snapshot
// seals the head into a partition on demand, and the server is the one
// scheduler of automatic seals: Config.SnapshotEvery triggers one once that
// many records have accumulated since the last seal, Config.SnapshotInterval
// on a timer while the head holds records. Both triggers share one seal slot,
// skip a member that is following, and count in wal.snapshots_requested.
// See docs/OPERATIONS.md.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/repl"
	"tkplq/internal/retry"
)

// Serving roles. A standalone server owns the whole table; a shard owns one
// static partition of the objects and refuses ingest outside it; a router
// owns no records at all and answers queries by fanning /v2/partial over the
// topology's shards and merging the contributions in canonical
// ascending-object order (bit-identical to standalone — see internal/core's
// partial machinery and internal/cluster).
const (
	RoleStandalone = "standalone"
	RoleShard      = "shard"
	RoleRouter     = "router"
)

// Config parametrizes a Server.
type Config struct {
	// System is the query system to serve. Required.
	System *tkplq.System
	// Addr is the listen address; ":8080" when empty. Use "127.0.0.1:0" to
	// bind an ephemeral port (Server.Addr reports the bound address).
	Addr string
	// RequestTimeout bounds each request's evaluation via its context; 30s
	// when zero. An expired budget cancels the engine evaluation and yields
	// a 503 JSON error envelope.
	RequestTimeout time.Duration
	// Logf receives server log lines; log.Printf when nil.
	Logf func(format string, args ...any)
	// Store is the durable store attached to System (nil = in-memory
	// serving). The server never appends to or seals it directly —
	// System.Ingest and System.Snapshot do — but uses it to report the wal
	// and storage sections of /v1/stats and its position on /readyz, to
	// answer POST /v1/snapshot and /v1/compact, and to drive automatic seals.
	Store *tkplq.PartitionedStore
	// SnapshotEvery triggers an automatic seal once this many records have
	// been appended since the last one (0 = off). Requires Store.
	SnapshotEvery int
	// SnapshotInterval triggers an automatic seal on this cadence whenever
	// records have been appended since the last one (0 = off). The timer
	// runs from Start to Shutdown. Requires Store.
	SnapshotInterval time.Duration
	// SSEHeartbeat paces the comment heartbeats of /v2/subscribe streams that
	// keep idle connections alive through proxies; DefaultSSEHeartbeat when
	// zero.
	SSEHeartbeat time.Duration
	// Role selects the serving mode: RoleStandalone (default, empty),
	// RoleShard or RoleRouter.
	Role string
	// Topology is the cluster's static object→shard map. Required for the
	// shard and router roles; every member must load the same file.
	Topology *cluster.Topology
	// ShardIndex is this process's index in Topology (shard role only).
	ShardIndex int
	// ShardTimeout bounds one router→shard attempt; DefaultShardTimeout when
	// zero (router role only).
	ShardTimeout time.Duration
	// Retry is the backoff schedule for idempotent read retries across a
	// shard's replica set (router role). The zero value applies the retry
	// package defaults. Ingest is never retried.
	Retry retry.Policy
	// HealthInterval paces the router's /readyz probe loop over every
	// topology member; DefaultHealthInterval when zero, < 0 disables the
	// loop (no load-balancing updates, no failover). Router role only.
	HealthInterval time.Duration
	// Replication wires per-shard replication (shard/standalone roles): the
	// primary-side stream source and, on a member booted as a replica, the
	// follower whose promotion flips the serving mode. Requires Store.
	Replication *ReplConfig
}

// DefaultRequestTimeout bounds request handling when Config.RequestTimeout
// is zero.
const DefaultRequestTimeout = 30 * time.Second

// MaxBodyBytes caps every request body a server reads and every shard
// response a router reads.
const MaxBodyBytes = 8 << 20

// Server serves one tkplq.System over HTTP.
type Server struct {
	sys     *tkplq.System
	cfg     Config
	handler http.Handler
	httpSrv *http.Server
	ln      net.Listener
	started time.Time
	router  *Router // non-nil in the router role
	// evaluate answers a converted /v2/query: the system's DoBatch, in the
	// router role the same driver over the cluster's rows.
	evaluate func(ctx context.Context, qs []tkplq.Query) ([]*tkplq.Response, error)
	// endOfData resolves a te == 0 window: the table's newest timestamp, in
	// the router role the newest across the cluster (Router.endOfData).
	endOfData func(ctx context.Context) (tkplq.Time, error)

	ownershipRejects atomic.Int64 // shard role: ingest records refused as not-owned
	following        atomic.Bool  // replica booted as a follower and not yet promoted

	queries         atomic.Int64
	queryErrors     atomic.Int64
	canceled        atomic.Int64
	batches         atomic.Int64
	ingestRequests  atomic.Int64
	recordsIngested atomic.Int64
	snapshots       atomic.Int64
	autoSeal        chan struct{} // capacity 1: held by the one auto-seal in flight
	stopTicker      func()        // stops and joins the SnapshotInterval timer
	subsActive      atomic.Int64
	subsTotal       atomic.Int64
	subUpdates      atomic.Int64
}

// New builds a Server around the system. It does not listen yet; call Start
// (or use Handler with a test server).
func New(cfg Config) (*Server, error) {
	if cfg.System == nil {
		return nil, errors.New("server: nil System")
	}
	if cfg.Addr == "" {
		cfg.Addr = ":8080"
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	switch cfg.Role {
	case "", RoleStandalone:
		cfg.Role = RoleStandalone
	case RoleShard:
		if cfg.Topology == nil {
			return nil, errors.New("server: shard role requires a topology")
		}
		if cfg.ShardIndex < 0 || cfg.ShardIndex >= cfg.Topology.NumShards() {
			return nil, fmt.Errorf("server: shard index %d out of range (topology has %d shards)",
				cfg.ShardIndex, cfg.Topology.NumShards())
		}
	case RoleRouter:
		if cfg.Topology == nil {
			return nil, errors.New("server: router role requires a topology")
		}
	default:
		return nil, fmt.Errorf("server: unknown role %q (want %s, %s or %s)",
			cfg.Role, RoleStandalone, RoleShard, RoleRouter)
	}
	if cfg.Replication != nil {
		switch {
		case cfg.Role == RoleRouter:
			return nil, errors.New("server: the router role does not replicate (Replication is for shard/standalone members)")
		case cfg.Replication.Source == nil:
			return nil, errors.New("server: Replication requires a Source")
		case cfg.Store == nil:
			return nil, errors.New("server: Replication requires a Store")
		}
	}
	if cfg.SnapshotInterval > 0 && cfg.Store == nil {
		return nil, errors.New("server: SnapshotInterval requires a Store")
	}
	s := &Server{sys: cfg.System, cfg: cfg, started: time.Now(), autoSeal: make(chan struct{}, 1),
		stopTicker: func() {}, evaluate: cfg.System.DoBatch}
	s.endOfData = func(context.Context) (tkplq.Time, error) {
		_, hi, _ := cfg.System.Table().TimeSpan()
		return hi, nil
	}
	if cfg.Replication != nil && cfg.Replication.Follower != nil {
		s.following.Store(true)
	}

	// The member's routes, decided once: a route it does not serve answers
	// 501 with the reason (refuse), so no handler asks what member it is.
	ingest, subscribe, partial, span := s.handleIngest, s.handleSubscribe, s.handlePartial, s.handleSpan
	snapshot, compact := s.handleSnapshot, s.handleCompact
	replicate, replicateAck, promote := s.handleReplicate, s.handleReplicateAck, s.handlePromote
	if cfg.Store == nil {
		const why = "persistence not configured (start tkplqd with -data-dir)"
		snapshot, compact = refuse(why), refuse(why)
	}
	if cfg.Replication == nil {
		const why = "replication not configured on this member"
		replicate, replicateAck, promote = refuse(why), refuse(why), refuse(why)
	}
	if cfg.Role == RoleRouter {
		s.router = newRouter(cfg.Topology, cfg.System, cfg.ShardTimeout, cfg.Retry, cfg.HealthInterval, cfg.Logf)
		s.evaluate = func(ctx context.Context, qs []tkplq.Query) ([]*tkplq.Response, error) {
			return s.router.drv.Answer(ctx, s.router, qs)
		}
		// The router's table is empty: the end of data is the cluster's.
		s.endOfData = s.router.endOfData
		ingest = s.handleIngestRouted
		// Records, seals and incremental monitors live next to the data.
		snapshot = refuse("snapshots are per-shard (POST /v1/snapshot on each shard)")
		compact = refuse("compaction is per-shard (POST /v1/compact on each shard)")
		subscribe = refuse("subscriptions are per-shard in a cluster (GET /v2/subscribe on a shard)")
		partial = refuse("partials are per-shard (POST /v2/partial on each shard); a router holds no records")
		span = refuse("spans are per-shard (GET /v2/span on each shard); a router holds no records")
	}

	// Explicit method checks (rather than Go 1.22 method patterns) so a
	// wrong-method request gets the JSON error envelope, not the mux's bare
	// text 405.
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/query", s.method(http.MethodPost, s.handleQueryV2))
	mux.HandleFunc("/v2/subscribe", s.method(http.MethodGet, subscribe))
	mux.HandleFunc("/v1/ingest", s.method(http.MethodPost, ingest))
	mux.HandleFunc("/v1/snapshot", s.method(http.MethodPost, snapshot))
	mux.HandleFunc("/v1/compact", s.method(http.MethodPost, compact))
	mux.HandleFunc("/v2/partial", s.method(http.MethodPost, partial))
	mux.HandleFunc("/v2/span", s.method(http.MethodGet, span))
	mux.HandleFunc("/v1/stats", s.method(http.MethodGet, s.handleStats))
	mux.HandleFunc("/healthz", s.method(http.MethodGet, s.handleHealthz))
	mux.HandleFunc("/readyz", s.method(http.MethodGet, s.handleReadyz))
	mux.HandleFunc(repl.PathReplicate, s.method(http.MethodPost, replicate))
	mux.HandleFunc(repl.PathReplicateAck, s.method(http.MethodPost, replicateAck))
	mux.HandleFunc(repl.PathPromote, s.method(http.MethodPost, promote))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		errorJSON(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
	})
	s.handler = mux
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
		// WriteTimeout backstops the per-request context budget (it must
		// outlast it so the 503 envelope can still be written).
		WriteTimeout: cfg.RequestTimeout + 10*time.Second,
		IdleTimeout:  2 * time.Minute,
	}
	return s, nil
}

// refuse is the handler of a route this member does not serve: 501 with why.
func refuse(why string) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		errorJSON(w, http.StatusNotImplemented, "%s", why)
	}
}

// method wraps a handler with a method check that answers in the JSON error
// envelope.
func (s *Server) method(want string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != want {
			w.Header().Set("Allow", want)
			errorJSON(w, http.StatusMethodNotAllowed, "method %s not allowed (want %s)", r.Method, want)
			return
		}
		h(w, r)
	}
}

// requestContext derives the evaluation context for one request: the
// client's connection context (canceled when the client disconnects)
// bounded by the per-request budget. This is the cancellation source that
// actually stops engine evaluation — there is no http.TimeoutHandler layer.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// Handler returns the server's root handler, for tests and embedding.
func (s *Server) Handler() http.Handler { return s.handler }

// Start binds the configured address and starts the SnapshotInterval timer.
// After Start, Addr reports the bound address and Serve accepts connections.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	if every := s.cfg.SnapshotInterval; every > 0 {
		t, quit, done := time.NewTicker(every), make(chan struct{}), make(chan struct{})
		s.stopTicker = sync.OnceFunc(func() { close(quit); <-done })
		go func() {
			defer close(done)
			defer t.Stop()
			for {
				select {
				case <-quit:
					return
				case <-t.C:
					if s.cfg.Store.RecordsSinceSnapshot() > 0 {
						s.autoSnapshot("periodic")
					}
				}
			}
		}()
	}
	return nil
}

// Addr returns the bound listen address ("" before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Shutdown. It returns nil on graceful
// shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		if err := s.Start(); err != nil {
			return err
		}
	}
	s.cfg.Logf("server: serving on %s", s.Addr())
	err := s.httpSrv.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown stops the seal timer, stops accepting connections and waits for
// in-flight requests — and an auto-seal a trigger started — to finish, up to
// the context's deadline. After a nil return nothing of the server's touches
// the store, so the caller may close it and reopen the directory.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cfg.Logf("server: shutting down (%d queries, %d records ingested)",
		s.queries.Load(), s.recordsIngested.Load())
	s.stopTicker()
	if s.router != nil {
		s.router.stop()
	}
	if rc := s.cfg.Replication; rc != nil {
		// The replication streams are active handlers that never end on
		// their own; cancel them or httpSrv.Shutdown waits out its budget.
		rc.Source.Shutdown()
	}
	if err := s.httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	// With the timer stopped and the handlers drained no auto-seal can start;
	// one already running may still be committing its partition, and its
	// rename must not land in a directory the caller has already reopened.
	select {
	case s.autoSeal <- struct{}{}:
		<-s.autoSeal
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: auto-seal still running: %w", ctx.Err())
	}
}
