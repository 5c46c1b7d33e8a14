// Command tkplqd is the TkPLQ serving daemon: it loads (or generates) an
// indoor mobility dataset and serves continuous queries over HTTP.
//
//	POST /v2/query    {"kind":"topk","algorithm":"bf","k":5,"ts":0,"te":0,"slocs":[]}
//	                  plus per-query options (workers, no_cache, no_coalesce,
//	                  oid for kind "presence"); send a JSON array to evaluate
//	                  a shared-work batch in one request
//	POST /v1/ingest   {"records":[{"oid":1,"t":120,"samples":[{"ploc":4,"prob":0.6},...]}]}
//	POST /v1/snapshot seal the live head into a partition (needs -data-dir)
//	POST /v1/compact  merge runs of small sealed partitions (needs -data-dir)
//	GET  /v2/subscribe?window=900&k=5[&slocs=1,2]
//	                  Server-Sent Events stream of live ranking changes over
//	                  the trailing window; identical subscriptions share one
//	                  incrementally-maintained monitor
//	GET  /v1/stats
//	GET  /healthz, /readyz
//	POST /v2/partial, GET /v2/span, POST /v2/replicate, /v2/replicate/ack,
//	     /v2/promote  cluster-internal (router fan-in, replication, failover)
//
// Every request is evaluated under its own context: the request-timeout
// budget and the client connection are the cancellation sources, so a
// timed-out or abandoned request stops the engine's shard workers instead
// of burning them to completion. Concurrent identical queries share one
// evaluation (query-level request coalescing) on top of the engine's
// window cache. The daemon shuts down gracefully on
// SIGINT/SIGTERM, draining in-flight requests.
//
// With -data-dir the live table is durable: every accepted ingest batch is
// written ahead to a CRC-framed log before it is applied, and the data
// directory holds immutable, memory-mapped sealed partitions plus that short
// log head. POST /v1/snapshot seals the head into a new partition in O(head),
// and so do the server's automatic seals — -snapshot-every (count) and
// -snapshot-interval (timer), one scheduler with one seal slot, never on a
// follower. Restart maps the partitions and replays only the log tail no
// matter how large the table is, and sealed records never occupy heap —
// larger-than-RAM datasets, millisecond restarts. The recovered table answers
// bit-identically to the never-restarted one — kill -9 mid-ingest loses at
// most an unacknowledged batch. On the first start the initial dataset
// (-iupt file or generated) is ingested and sealed as the bootstrap
// partition; on later starts the recovered state wins, the dataset flags go
// unused and only -dataset rebuilds the indoor space, which must stay the
// same (and the same gendata space for ingested P-location ids).
// So `-iupt FILE -format bin -data-dir DIR` is the one way to seed a
// directory from a file. A directory holding an older build's flat snapshot
// + log layout is refused with the two ways to convert it. See
// docs/OPERATIONS.md for the full operations guide and docs/FORMATS.md for
// the on-disk formats.
//
// With -role the daemon becomes one member of a distributed cluster
// (default: standalone). A `shard` owns the static partition of the objects
// that a shared topology file (-topology, see internal/cluster) assigns to
// its -shard-index — it carves its partition out of the initial dataset at
// boot, keeps its own data-dir, and refuses ingest of foreign
// objects. A `router` holds no records: it fans queries out to every shard's
// /v2/partial, merges the per-object contributions in canonical ascending-
// object order and ranks — answers are bit-identical to a standalone daemon
// over the same dataset — and splits /v1/ingest batches to the owning
// shards. See docs/OPERATIONS.md § Running a cluster.
//
// With -replica-of the daemon boots as a live follower of another member:
// it bootstraps its data directory from the primary's sealed partitions
// byte-for-byte over POST /v2/replicate, then tails the primary's committed
// WAL, applying every batch through the same ingest path — a caught-up
// follower answers queries bit-identically to its primary. Followers are
// read-only (ingest/snapshot/compact answer 503) and report not-ready on
// /readyz until synced; POST /v2/promote flips one to primary during
// failover. A router probes every replica member's /readyz, load-balances
// idempotent reads across caught-up members, and fails a dead primary over
// to the most-caught-up follower — so kill -9 of any single process leaves
// the cluster serving. See docs/OPERATIONS.md § Replication & failover.
//
// Usage:
//
//	tkplqd [-addr HOST:PORT] [-dataset syn|rd] [-iupt FILE] [-format csv|bin]
//	       [-objects N] [-duration SECONDS] [-seed N] [-workers N]
//	       [-request-timeout DUR] [-shutdown-timeout DUR]
//	       [-data-dir DIR] [-fsync always|interval] [-fsync-interval DUR]
//	       [-snapshot-every N] [-snapshot-interval DUR]
//	       [-compact-interval DUR] [-compact-min-inputs N]
//	       [-compact-target-bytes N] [-pprof HOST:PORT]
//	       [-role standalone|shard|router] [-topology FILE]
//	       [-shard-index N] [-shard-timeout DUR] [-health-interval DUR]
//	       [-replica-of HOST:PORT[,HOST:PORT...]] [-advertise HOST:PORT]
//	       [-repl-heartbeat DUR] [-repl-window BYTES] [-keep-segments N]
//
// The daemon decides which member it boots (router, follower, durable or
// in-memory) and refuses every explicitly set flag that member never reads
// rather than silently ignoring it; see docs/OPERATIONS.md for the table.
//
// -pprof serves net/http/pprof (CPU, heap, goroutine, trace profiles) on a
// *separate* listener, off by default so profiling endpoints are never
// exposed on the query port by accident; bind it to localhost. See
// docs/OPERATIONS.md § Profiling for the walkthrough.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/iupt"
	"tkplq/internal/repl"
	"tkplq/internal/server"
	"tkplq/internal/sim"
	"tkplq/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tkplqd:", err)
		os.Exit(1)
	}
}

// run builds the system from flags and serves until ctx is cancelled. The
// listen address is announced on out once the socket is bound.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tkplqd", flag.ContinueOnError)
	var (
		addr            = fs.String("addr", ":8080", "listen address")
		dataset         = fs.String("dataset", "syn", "dataset kind: syn (multi-floor synthetic) or rd (real-data analog floor)")
		iuptFile        = fs.String("iupt", "", "IUPT file from gendata (default: generate)")
		format          = fs.String("format", "csv", "IUPT file format: csv or bin")
		objects         = fs.Int("objects", 50, "number of objects when generating")
		duration        = fs.Int64("duration", 7200, "simulated span when generating")
		seed            = fs.Int64("seed", 42, "random seed when generating (unused with -iupt, whose file holds the records)")
		workers         = fs.Int("workers", 0, "engine worker pool (0 = GOMAXPROCS, 1 = single-threaded)")
		requestTimeout  = fs.Duration("request-timeout", server.DefaultRequestTimeout, "per-request handling budget")
		shutdownTimeout = fs.Duration("shutdown-timeout", 15*time.Second, "graceful shutdown drain budget")
		dataDir         = fs.String("data-dir", "", "durable data directory (memory-mapped sealed partitions + WAL head); empty = in-memory only")
		fsyncPolicy     = fs.String("fsync", "always", "WAL fsync policy: always (durable per batch) or interval (batched)")
		fsyncInterval   = fs.Duration("fsync-interval", wal.DefaultSyncEvery, "fsync cadence for -fsync interval")
		snapshotEvery   = fs.Int("snapshot-every", 100000, "auto-seal after N records ingested since the last seal (0 = off); bounds log growth and restart replay")
		snapshotIvl     = fs.Duration("snapshot-interval", 0, "periodic seal cadence (0 = off)")
		compactIvl      = fs.Duration("compact-interval", 0, "background compaction cadence (0 = manual POST /v1/compact only)")
		compactMin      = fs.Int("compact-min-inputs", 0, "minimum adjacent small partitions before a compaction fires (0 = default)")
		compactTarget   = fs.Int64("compact-target-bytes", 0, "target merged partition size; partitions at or past it are never re-compacted (0 = default)")
		pprofAddr       = fs.String("pprof", "", "serve net/http/pprof on this separate listener (e.g. localhost:6060); empty = off")
		role            = fs.String("role", server.RoleStandalone, "serving role: standalone, shard or router")
		topologyFile    = fs.String("topology", "", "cluster topology file (required for -role shard|router; every member must load the same file)")
		shardIndex      = fs.Int("shard-index", -1, "this shard's index in the topology (required for -role shard)")
		shardTimeout    = fs.Duration("shard-timeout", server.DefaultShardTimeout, "router: per-shard attempt budget (reads retry across replicas under backoff within the request budget)")
		healthInterval  = fs.Duration("health-interval", server.DefaultHealthInterval, "router: /readyz probe cadence driving read load-balancing and failover (negative = off)")
		replicaOf       = fs.String("replica-of", "", "boot as a live follower replicating from these candidate primaries (host:port, comma-separated); requires -data-dir")
		advertise       = fs.String("advertise", "", "this member's advertised address — its replication identity (default: -addr)")
		replHeartbeat   = fs.Duration("repl-heartbeat", time.Second, "primary: replication heartbeat cadence on idle streams")
		replWindow      = fs.Int64("repl-window", 4<<20, fmt.Sprintf("primary: max unacknowledged replication bytes per follower before the stream waits for acks (at least %d: two follower ack cadences)", repl.MinWindowBytes))
		keepSegments    = fs.Int("keep-segments", -1, "rotated WAL segments retained for follower catch-up (-1 = 4 on replicated members, 0 elsewhere)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := newMember(fs)
	if err != nil {
		return err
	}
	if *replWindow < repl.MinWindowBytes {
		return fmt.Errorf("-repl-window %d is below the %d-byte floor: a follower acks once per %d bytes applied", *replWindow, repl.MinWindowBytes, repl.AckEveryBytes)
	}
	adv := cmp.Or(*advertise, *addr)

	var topo *cluster.Topology
	if *role != server.RoleStandalone {
		if *topologyFile == "" {
			return fmt.Errorf("-role %s requires -topology", *role)
		}
		if topo, err = cluster.Load(*topologyFile); err != nil {
			return err
		}
		if *role == server.RoleShard && (*shardIndex < 0 || *shardIndex >= topo.NumShards()) {
			return fmt.Errorf("-shard-index %d out of range (topology has %d shards)", *shardIndex, topo.NumShards())
		}
	}
	// A shard keeps only its partition of the initial dataset; the topology
	// decides ownership, the dataset flags stay identical across the fleet.
	var own func(iupt.ObjectID) bool
	if *role == server.RoleShard {
		idx := *shardIndex
		own = func(oid iupt.ObjectID) bool { return topo.Owns(oid, idx) }
	}
	policy, err := parseFsyncPolicy(*fsyncPolicy)
	if err != nil {
		return err
	}
	b, err := sim.BuildingByName(*dataset)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }

	// WAL segment retention: replicated members keep a few rotated segments
	// so a briefly-disconnected follower can catch up from the log instead
	// of re-bootstrapping the whole partition set.
	keep := max(*keepSegments, 0)
	if *keepSegments < 0 && (m.kind == kindFollower || (*role == server.RoleShard && topo.NumMembers(*shardIndex) > 1)) {
		keep = 4
	}
	storeOpts := tkplq.PartitionedOptions{
		Dir: *dataDir, Policy: policy, SyncEvery: *fsyncInterval, KeepSegments: keep,
		// Always zero on a follower, whose -compact-* flags are refused: its
		// partition set must stay a byte-for-byte copy of what was shipped.
		Compact: tkplq.CompactionPolicy{MinInputs: *compactMin, TargetBytes: *compactTarget, Interval: *compactIvl},
	}
	opts := tkplq.Options{Workers: *workers}

	var sys *tkplq.System
	var store *tkplq.PartitionedStore
	var fol *repl.Follower
	var folErrCh chan error
	switch m.kind {
	case kindRouter, kindInMemory:
		if sys, err = tkplq.NewSystem(b.Space, iupt.NewTable(), opts); err != nil {
			return err
		}
		// The router holds no records; an in-memory member ingests its
		// initial dataset.
		if m.kind == kindInMemory {
			recs, err := seedRecords(b, *iuptFile, *format, *objects, *duration, *seed, own)
			if err != nil {
				return err
			}
			if err := ingestInitial(sys, recs); err != nil {
				return fmt.Errorf("initial ingest: %w", err)
			}
		}
	case kindFollower:
		// The replication stream owns the data directory — it may wipe it
		// and receive the primary's partitions byte-for-byte — so the store
		// opens inside the follower's Open callback, once the primary's
		// manifest has pinned the start position. The initial dataset is
		// never generated here: partition 1 arrives from the primary, which
		// is what makes the follower bit-identical.
		fol, err = repl.NewFollower(repl.FollowerConfig{
			Dir:       *dataDir,
			Self:      adv,
			Primaries: strings.Split(*replicaOf, ","),
			Open: func(uint64, int64) (*tkplq.System, *tkplq.PartitionedStore, error) {
				var err error
				sys, store, err = openDurable(b.Space, storeOpts, opts)
				return sys, store, err
			},
			Logf: logf,
		})
		if err != nil {
			return err
		}
		folErrCh = make(chan error, 1)
		go func() { folErrCh <- fol.Run(ctx) }()
		// Serve only once the store is open and the table recovered; a
		// half-bootstrapped follower would silently answer from an empty
		// table.
		select {
		case <-fol.Opened():
		case err := <-folErrCh:
			if err == nil {
				err = errors.New("follower exited before opening its store")
			}
			return fmt.Errorf("replication bootstrap from %s: %w", *replicaOf, err)
		case <-ctx.Done():
			return ctx.Err()
		}
		defer store.Close()
		logf("tkplqd: following %s into %s (%d records replicated so far)", *replicaOf, *dataDir, sys.Table().Len())
	case kindDurable:
		if sys, store, err = openDurable(b.Space, storeOpts, opts); err != nil {
			return err
		}
		defer store.Close()
		if sys.Table().Len() > 0 {
			// The durable state is the source of truth; the flags only
			// rebuild the (deterministic) indoor space around it. No
			// full-table Validate — the head was validated frame by frame
			// at replay and every sealed partition passed its CRC and
			// column invariants at open; decoding every sealed record here
			// would defeat the O(WAL tail) restart.
			if own != nil {
				// A shard's data-dir can only ever hold owned objects; a
				// foreign object means the topology changed under it.
				// Refuse loudly rather than silently dropping records.
				// Objects() scans only OID columns — no record decode.
				for _, oid := range sys.Table().Objects() {
					if !own(oid) {
						return fmt.Errorf("%s: recovered object %d is not owned by shard %d under %s — re-partition the data before changing the topology",
							*dataDir, oid, *shardIndex, *topologyFile)
					}
				}
			}
			ps := store.Stats()
			logf("tkplqd: recovered %d records from %s (%d sealed partitions mapped, %d sealed records untouched, %d replayed from the WAL tail)",
				sys.Table().Len(), *dataDir, ps.Partitions, ps.SealedRecords, ps.WAL.ReplayedRecords)
			if ps.WAL.CorruptFrames > 0 {
				logf("tkplqd: WARNING: %d complete WAL frames failed their CRC and were dropped — bit rot if the log was fsynced; check the disk",
					ps.WAL.CorruptFrames)
			}
			break
		}
		// Bootstrap the directory through the live write path: chunked
		// Ingest into the (empty) recovered head, then one seal — the
		// initial dataset becomes partition 1 and later restarts map it
		// without replaying a single record.
		recs, err := seedRecords(b, *iuptFile, *format, *objects, *duration, *seed, own)
		if err != nil {
			return err
		}
		if err := ingestInitial(sys, recs); err != nil {
			return fmt.Errorf("bootstrap ingest: %w", err)
		}
		if err := sys.Snapshot(); err != nil {
			return fmt.Errorf("bootstrap seal: %w", err)
		}
		logf("tkplqd: initialized %s with a bootstrap partition (%d records)", *dataDir, sys.Table().Len())
	}

	if *pprofAddr != "" {
		stopProf, err := servePprof(*pprofAddr, out)
		if err != nil {
			return err
		}
		defer stopProf()
	}

	// Every durable member serves the replication stream: primaries feed
	// their followers, and a promoted follower must be able to feed a
	// rejoining sibling.
	var replCfg *server.ReplConfig
	if store != nil {
		src := repl.NewSource(repl.SourceConfig{
			Store:          store,
			HeartbeatEvery: *replHeartbeat,
			WindowBytes:    *replWindow,
			Logf:           logf,
		})
		replCfg = &server.ReplConfig{Source: src, Follower: fol, Self: adv}
	}

	srv, err := server.New(server.Config{
		System:           sys,
		Addr:             *addr,
		RequestTimeout:   *requestTimeout,
		Store:            store,
		SnapshotEvery:    *snapshotEvery,
		SnapshotInterval: *snapshotIvl,
		Role:             *role,
		Topology:         topo,
		ShardIndex:       *shardIndex,
		ShardTimeout:     *shardTimeout,
		HealthInterval:   *healthInterval,
		Replication:      replCfg,
		Logf:             logf,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	// Len/Objects, not ComputeStats: a partitioned table reports both from
	// footers and OID columns without decoding a single sealed record.
	logf("tkplqd: listening on %s (role %s, %d records, %d objects, %d S-locations)",
		srv.Addr(), *role, sys.Table().Len(), len(sys.Table().Objects()), sys.Space().NumSLocations())

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve() }()
	shutdown := func() error {
		sctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		// Joins the server's seals: none writes after run returns.
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errCh; err != nil {
			return err
		}
		if store != nil {
			// Final fsync: everything acknowledged is on disk before exit.
			if err := store.Close(); err != nil {
				return fmt.Errorf("closing wal: %w", err)
			}
		}
		return nil
	}
	for {
		select {
		case <-ctx.Done():
			fmt.Fprintln(out, "tkplqd: shutting down")
			return shutdown()
		case err := <-errCh:
			return err
		case err := <-folErrCh:
			folErrCh = nil // one-shot: Run never restarts
			if err == nil || errors.Is(err, context.Canceled) {
				// Promoted (keep serving, now as the shard's primary), or
				// the daemon is shutting down and the follower noticed
				// first — the ctx.Done case follows.
				continue
			}
			// A fatal replication error (divergence, bootstrap required
			// against a wiped primary, operator misconfig): serving a
			// possibly-stale read-only table forever would be worse than
			// exiting loudly — a restart re-bootstraps cleanly.
			logf("tkplqd: replication follower failed: %v", err)
			if serr := shutdown(); serr != nil {
				logf("tkplqd: %v", serr)
			}
			return fmt.Errorf("replication follower: %w", err)
		}
	}
}

// The kinds of member one command line boots. The kind, the role and whether
// the dataset comes from a file decide which flags the boot reads.
const (
	kindRouter   = iota // -role router: no records, fans queries out to the shards
	kindFollower        // -replica-of with -data-dir: records arrive from a primary
	kindDurable         // -data-dir: a standalone or shard member owning its store
	kindInMemory        // neither: a standalone or shard member over a heap table
)

// member is what one command line boots.
type member struct {
	kind     int
	role     string
	fromFile bool   // -iupt is set
	fsync    string // the -fsync policy
}

// newMember decides what the parsed command line boots — the member kind
// from -role, -replica-of and -data-dir — and then refuses the explicitly set
// flags that boot never reads rather than silently ignoring them, naming
// every flag that shares the first reason found.
func newMember(fs *flag.FlagSet) (member, error) {
	get := func(name string) string { return fs.Lookup(name).Value.String() }
	role, replicaOf, dataDir := get("role"), get("replica-of"), get("data-dir")
	m := member{role: role, fromFile: get("iupt") != "", fsync: get("fsync")}
	switch {
	case role != server.RoleStandalone && role != server.RoleShard && role != server.RoleRouter:
		return m, fmt.Errorf("unknown -role %q (want standalone, shard or router)", role)
	case role == server.RoleRouter && replicaOf != "":
		return m, errors.New("-replica-of is for shard/standalone members: the router holds no records to replicate")
	case role == server.RoleRouter && dataDir != "":
		return m, errors.New("-data-dir is per-shard: the router holds no records")
	case role == server.RoleRouter:
		m.kind = kindRouter
	case dataDir == "":
		m.kind = kindInMemory // -replica-of is refused below: it needs -data-dir
	case replicaOf != "":
		m.kind = kindFollower
	default:
		m.kind = kindDurable
	}
	var reason string
	var names []string
	fs.Visit(func(f *flag.Flag) {
		if r := m.unread(f.Name); r != "" && (reason == "" || r == reason) {
			reason = r
			names = append(names, "-"+f.Name)
		}
	})
	if reason != "" {
		return m, fmt.Errorf("%s %s", strings.Join(names, ", "), reason)
	}
	return m, nil
}

// Flags that configure the durable store, and flags that shape the initial
// dataset.
var (
	storeFlags = strings.Fields("replica-of fsync fsync-interval snapshot-every snapshot-interval keep-segments " +
		"advertise repl-heartbeat repl-window compact-interval compact-min-inputs compact-target-bytes")
	datasetFlags = strings.Fields("iupt format objects duration seed")
)

// unread returns why the member's boot never reads the flag name, or "" when
// it does. Flags that only a data directory's first boot reads (the dataset
// flags of a durable member) count as read: whether the directory is empty
// is a property of the data, not of the command line.
func (m member) unread(name string) string {
	store, dataset := slices.Contains(storeFlags, name), slices.Contains(datasetFlags, name)
	switch {
	case m.kind == kindRouter && (store || dataset):
		return "cannot be used with -role router: the router holds no records"
	case m.kind == kindInMemory && store:
		return "requires -data-dir (it configures the durable store)"
	case m.kind == kindFollower && strings.HasPrefix(name, "compact-"):
		return "cannot be used with -replica-of: a follower's partition set stays a byte-for-byte copy of its primary's, so it never compacts in the background, not even after promotion"
	case m.kind == kindFollower && dataset:
		return "cannot be used with -replica-of: a follower's records arrive from its primary"
	case name == "fsync-interval" && m.fsync != "interval":
		return "requires -fsync interval"
	case name == "format" && !m.fromFile:
		return "requires -iupt"
	case m.fromFile && (name == "objects" || name == "duration" || name == "seed"):
		return "cannot be used with -iupt: the file holds the records, these flags only shape a generated dataset"
	case name == "topology" && m.role == server.RoleStandalone:
		return "requires -role shard or -role router"
	case name == "shard-index" && m.role != server.RoleShard:
		return "requires -role shard"
	case (name == "shard-timeout" || name == "health-interval") && m.role != server.RoleRouter:
		return "requires -role router"
	}
	return ""
}

// openDurable opens a durable member's data directory and serves the
// recovered table through a System that writes ahead to the store.
func openDurable(space *tkplq.Space, po tkplq.PartitionedOptions, opts tkplq.Options) (*tkplq.System, *tkplq.PartitionedStore, error) {
	store, recovered, err := tkplq.OpenPartitioned(po)
	if err != nil {
		return nil, nil, err
	}
	sys, err := tkplq.NewSystem(space, recovered, opts)
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	sys.SetPersister(store)
	return sys, store, nil
}

// ingestInitial feeds the initial dataset through System.Ingest in chunks
// bounded well under the WAL's 64 MiB frame limit, so every boot that holds
// records — in memory, or bootstrapping a partitioned data directory — takes
// exactly the live write path and its checks.
func ingestInitial(sys *tkplq.System, recs []iupt.Record) error {
	const maxChunkBytes = 8 << 20
	for len(recs) > 0 {
		n, bytes := 0, 0
		for ; n < len(recs) && bytes < maxChunkBytes; n++ {
			bytes += iupt.EncodedLen(&recs[n])
		}
		if err := sys.Ingest(recs[:n]); err != nil {
			return err
		}
		recs = recs[n:]
	}
	return nil
}

// servePprof serves the net/http/pprof handlers on their own listener, kept
// off the query mux so profiling is opt-in and bindable to localhost only.
// The returned stop function closes the listener.
func servePprof(addr string, out io.Writer) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("pprof listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	psrv := &http.Server{Handler: mux}
	go func() {
		if err := psrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(out, "tkplqd: pprof server: %v\n", err)
		}
	}()
	fmt.Fprintf(out, "tkplqd: pprof on http://%s/debug/pprof/\n", ln.Addr())
	return func() { psrv.Close() }, nil
}

// parseFsyncPolicy maps the -fsync flag to a WAL sync policy.
func parseFsyncPolicy(s string) (tkplq.SyncPolicy, error) {
	switch s {
	case "always":
		return tkplq.SyncAlways, nil
	case "interval":
		return tkplq.SyncInterval, nil
	}
	return 0, fmt.Errorf("unknown -fsync policy %q (want always or interval)", s)
}

// seedRecords loads the initial IUPT from a gendata file or generates it on
// the fly over the building, stable-sorted into canonical (T, arrival) order
// (only checked for gendata's already-sorted files, where the stable sort
// would still cost ~5 % of seeding), and filtered by the shard ownership
// predicate when non-nil: every cluster member runs the same
// deterministic generation, and each shard carves out its objects, so the
// shards' seeds union to exactly the standalone seed.
func seedRecords(b *sim.Building, iuptFile, format string, objects int, duration, seed int64, own func(iupt.ObjectID) bool) ([]iupt.Record, error) {
	recs, err := sim.CLIRecords(b, iuptFile, format, objects, iupt.Time(duration), seed)
	if err != nil {
		return nil, err
	}
	byT := func(a, b iupt.Record) int { return cmp.Compare(a.T, b.T) }
	if !slices.IsSortedFunc(recs, byT) {
		slices.SortStableFunc(recs, byT)
	}
	if own != nil {
		recs = slices.DeleteFunc(recs, func(rec iupt.Record) bool { return !own(rec.OID) })
	}
	return recs, nil
}
