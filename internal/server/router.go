package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/core"
	"tkplq/internal/iupt"
	"tkplq/internal/retry"
)

// DefaultHealthInterval paces the router's /readyz probe loop when
// Config.HealthInterval is zero.
const DefaultHealthInterval = time.Second

// probeTimeout bounds one /readyz probe; probes must stay far cheaper than
// the interval so a hung member cannot stall the loop.
const probeTimeout = 2 * time.Second

// failoverThreshold is how many consecutive failed/not-ready probes of a
// shard's primary trigger promotion of a follower. Two probes distinguish a
// dead process from one blip.
const failoverThreshold = 2

// Router is the fan-out/fan-in half of a distributed tkplq cluster. It owns
// one shardClient per replica-set member and is a core.RowSource: a pass is
// the shards' per-object partial contributions (/v2/partial) merged in
// canonical ascending-object order. There is one driver and two row sources —
// a standalone process answers the same core.Driver from its table — so every
// answer is bit-identical to single-node evaluation (see internal/core's
// partial.go and the PR-1 determinism contract).
//
// The router holds no records and no engine: grouping, coalescing, validation
// and ranking are the driver's, which needs the space alone. Its source
// version is the ingest epoch, bumped on every routed ingest, so a query
// racing an ingest never joins a pre-ingest flight.
//
// With replicated shards (topology entries listing [primary, follower...]),
// a background loop probes every member's /readyz: idempotent reads
// load-balance round-robin across the shard's ready members (which hold at
// least the records this router has acknowledged, shardGroup.acked) and retry
// across them under the shared backoff policy; ingest goes to the current
// primary only and is never retried (a lost response may have been
// applied). When a primary stays not-ready for failoverThreshold probes,
// the router promotes the most-caught-up reachable follower (POST
// /v2/promote, comparing (seal_seq, wal_off)) and swings the shard's writes
// to it — so kill -9 of any single member leaves the cluster serving.
type Router struct {
	topo   *cluster.Topology
	drv    *core.Driver
	groups []*shardGroup
	epoch  atomic.Int64
	retry  retry.Policy
	logf   func(format string, args ...any)

	healthEvery time.Duration
	healthPoke  chan struct{}
	healthStop  chan struct{}
	healthDone  chan struct{}
	stopOnce    sync.Once

	fanOuts     atomic.Int64
	shardErrors atomic.Int64
	failovers   atomic.Int64
}

// shardGroup is one shard's replica set: its member clients and the
// router's current belief about which of them is the primary.
type shardGroup struct {
	index   int
	members []*shardClient
	primary atomic.Int32 // index into members
	rr      atomic.Uint32
	fails   int // consecutive bad primary probes; health loop only
	// acked is the highest record count a routed ingest to this shard was
	// acknowledged at; a read answered from fewer records would un-see it
	// (shardClient.staleAt). Reset when the primary changes: replication is
	// asynchronous, so the new primary defines the truth.
	acked atomic.Int64
}

func (g *shardGroup) primaryClient() *shardClient {
	return g.members[g.primary.Load()]
}

// ack raises the shard's read floor to records (a max: acks can reorder).
func (g *shardGroup) ack(records int) {
	for cur := g.acked.Load(); int64(records) > cur && !g.acked.CompareAndSwap(cur, int64(records)); cur = g.acked.Load() {
	}
}

// candidates orders the group's members for one idempotent read: ready
// members first, rotated round-robin so reads spread across caught-up
// replicas, then the rest as a last resort (health state may be stale).
func (g *shardGroup) candidates() []*shardClient {
	n := len(g.members)
	if n == 1 {
		return g.members
	}
	start := int(g.rr.Add(1)) % n
	ready := make([]*shardClient, 0, n)
	var rest []*shardClient
	for k := 0; k < n; k++ {
		c := g.members[(start+k)%n]
		if c.ready.Load() {
			ready = append(ready, c)
		} else {
			rest = append(rest, c)
		}
	}
	return append(ready, rest...)
}

func newRouter(topo *cluster.Topology, sys *tkplq.System, timeout time.Duration, pol retry.Policy, healthEvery time.Duration, logf func(string, ...any)) *Router {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rt := &Router{
		topo:  topo,
		drv:   core.NewDriver(sys.Space()),
		retry: pol,
		logf:  logf,
	}
	multi := false
	for i := 0; i < topo.NumShards(); i++ {
		g := &shardGroup{index: i}
		for m := 0; m < topo.NumMembers(i); m++ {
			c := newShardClient(i, m, topo.Member(i, m), timeout)
			if m == 0 {
				// Until the first probe says otherwise, member 0 is the
				// primary and the only member trusted with reads — a
				// follower mid-bootstrap must not serve an empty table.
				c.ready.Store(true)
				c.modeVal.Store(memberModePrimary)
			}
			g.members = append(g.members, c)
		}
		if len(g.members) > 1 {
			multi = true
		}
		rt.groups = append(rt.groups, g)
	}
	if healthEvery == 0 {
		healthEvery = DefaultHealthInterval
	}
	rt.healthEvery = healthEvery
	if healthEvery > 0 && multi {
		rt.healthPoke = make(chan struct{}, 1)
		rt.healthStop = make(chan struct{})
		rt.healthDone = make(chan struct{})
		go rt.healthLoop()
	}
	return rt
}

// stop terminates the health loop (idempotent; no-op when it never ran).
func (rt *Router) stop() {
	rt.stopOnce.Do(func() {
		if rt.healthStop != nil {
			close(rt.healthStop)
			<-rt.healthDone
		}
	})
}

// pokeHealth nudges the health loop to probe now instead of at the next
// tick — called when a request just watched a member fail, so failover
// detection does not wait out the interval.
func (rt *Router) pokeHealth() {
	if rt.healthPoke == nil {
		return
	}
	select {
	case rt.healthPoke <- struct{}{}:
	default:
	}
}

// healthLoop probes every member's /readyz each interval and drives
// failover. It is the only writer of shardGroup.fails and the only caller
// of promote, so failover decisions are serialized.
func (rt *Router) healthLoop() {
	defer close(rt.healthDone)
	t := time.NewTicker(rt.healthEvery)
	defer t.Stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-rt.healthStop
		cancel()
	}()
	for {
		select {
		case <-rt.healthStop:
			return
		case <-t.C:
		case <-rt.healthPoke:
		}
		var wg sync.WaitGroup
		for _, g := range rt.groups {
			for _, c := range g.members {
				wg.Add(1)
				// acked is read before the probe leaves, so an ingest that
				// races the probe cannot make a caught-up member look stale.
				go func(c *shardClient, acked int) {
					defer wg.Done()
					c.probe(ctx, acked)
				}(c, int(g.acked.Load()))
			}
		}
		wg.Wait()
		if ctx.Err() != nil {
			return
		}
		for _, g := range rt.groups {
			rt.maybeFailover(ctx, g)
		}
	}
}

// maybeFailover inspects one group's fresh probe results and, when the
// primary is gone, promotes the best follower. If another member already
// claims primary mode (an operator promoted it, or a previous failover
// partially completed), the router adopts it instead of promoting twice.
func (rt *Router) maybeFailover(ctx context.Context, g *shardGroup) {
	if len(g.members) == 1 {
		return
	}
	cur := int(g.primary.Load())
	p := g.members[cur]
	if p.modeVal.Load() != memberModePrimary {
		for i, c := range g.members {
			if i != cur && c.reachable.Load() && c.modeVal.Load() == memberModePrimary {
				g.primary.Store(int32(i))
				g.fails = 0
				g.acked.Store(0)
				rt.failovers.Add(1)
				rt.logf("server: router adopted shard %d primary %s (was %s)", g.index, c.addr, p.addr)
				return
			}
		}
	}
	if p.ready.Load() {
		g.fails = 0
		return
	}
	g.fails++
	if g.fails < failoverThreshold {
		return
	}
	best := -1
	bestReady := false
	for i, c := range g.members {
		if i == cur || !c.reachable.Load() {
			continue
		}
		r := c.ready.Load()
		switch {
		case best == -1, r && !bestReady:
			best, bestReady = i, r
		case r == bestReady && c.aheadOf(g.members[best]):
			best, bestReady = i, r
		}
	}
	if best == -1 {
		return // nothing reachable to promote; keep trying next tick
	}
	b := g.members[best]
	if err := b.promote(ctx); err != nil {
		rt.logf("server: router failover of shard %d to %s failed: %v", g.index, b.addr, err)
		return
	}
	g.primary.Store(int32(best))
	g.fails = 0
	g.acked.Store(0)
	rt.failovers.Add(1)
	rt.logf("server: router failed shard %d over %s -> %s (seal %d, wal off %d)",
		g.index, p.addr, b.addr, b.sealSeq.Load(), b.walOff.Load())
}

// readMember runs one idempotent call against a shard's replica set:
// candidates in load-balanced order, retrying across them under the shared
// backoff policy. A non-retryable answer (4xx — the request itself is bad)
// returns immediately; transport failures, 5xx and answers from fewer than
// acked records (shardClient.staleAt) mark the member not-ready and move on.
// acked is pinned up front: the read must see every ingest acknowledged
// before it began, not ones that race it. Ingest must never go through here.
func readMember[T any](ctx context.Context, rt *Router, g *shardGroup, f func(ctx context.Context, c *shardClient, acked int) (T, error)) (T, error) {
	var zero T
	acked := int(g.acked.Load())
	cands := g.candidates()
	attempts := rt.retry.MaxAttempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if err := rt.retry.Sleep(ctx, attempt); err != nil {
				break
			}
		}
		c := cands[attempt%len(cands)]
		if attempt > 0 {
			c.retried.Add(1)
		}
		out, err := f(ctx, c, acked)
		if err == nil {
			return out, nil
		}
		if !retryableShardError(err) {
			return zero, err
		}
		lastErr = err
		c.ready.Store(false)
		rt.pokeHealth()
		if ctx.Err() != nil {
			break
		}
	}
	return zero, lastErr
}

// wireQuery re-encodes a pass for the shard /v2/partial endpoint. The window
// is already pinned (te resolved router-side), so every shard evaluates the
// same [ts, te] regardless of its local data span.
func wireQuery(q tkplq.Query) QueryV2 {
	slocs := make([]int, len(q.SLocs))
	for i, s := range q.SLocs {
		slocs[i] = int(s)
	}
	return QueryV2{
		QueryRequest: QueryRequest{
			Kind:  q.Kind.String(),
			K:     q.K,
			Ts:    int64(q.Ts),
			Te:    int64(q.Te),
			SLocs: slocs,
		},
		OID:     int64(q.OID),
		Workers: q.Workers,
		NoCache: q.DisableCache,
	}
}

// fanPartials collects the partial for q of every shard that can contribute
// — all of them, or for a presence pass the object's owner alone — through
// readShards.
func (rt *Router) fanPartials(ctx context.Context, q tkplq.Query) ([]*core.Partial, error) {
	rt.fanOuts.Add(1)
	groups := rt.groups
	if q.Kind == tkplq.KindPresence {
		owner := rt.topo.ShardOf(q.OID)
		groups = groups[owner : owner+1]
	}
	req := wireQuery(q)
	return readShards(ctx, rt, groups, func(ctx context.Context, c *shardClient, acked int) (*core.Partial, error) {
		return c.partial(ctx, req, acked)
	})
}

// readShards runs read on every group concurrently, each leg retrying across
// its shard's replica set (readMember). The first shard whose whole replica
// set fails cancels the remaining legs and is returned as a *shardError
// naming the shard; when several legs fail, a real failure wins over one
// induced by the cancellation.
func readShards[T any](ctx context.Context, rt *Router, groups []*shardGroup, read func(ctx context.Context, c *shardClient, acked int) (T, error)) ([]T, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([]T, len(groups))
	errs := make([]error, len(groups))
	eachShard(groups, func(i int, g *shardGroup) {
		if out[i], errs[i] = readMember(fctx, rt, g, read); errs[i] != nil {
			cancel()
		}
	})
	if err := firstShardError(ctx, errs); err != nil {
		rt.shardErrors.Add(1)
		return nil, err
	}
	return out, nil
}

// eachShard runs f for every group on its own goroutine and waits for all.
func eachShard(groups []*shardGroup, f func(i int, g *shardGroup)) {
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(i, g)
		}()
	}
	wg.Wait()
}

// firstShardError picks the failure to surface: the first error not caused
// by our own fan-out cancellation, falling back to the first error.
func firstShardError(ctx context.Context, errs []error) error {
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if ctx.Err() == nil {
			// A canceled leg is collateral of another leg's failure (its
			// cause wraps context.Canceled via the transport); keep looking
			// for the leg that actually failed.
			if se, ok := isShardError(err); ok && !errors.Is(se.cause, context.Canceled) {
				return err
			}
		}
	}
	return first
}

// Rows implements core.RowSource: one fan-out, merged and replayed.
func (rt *Router) Rows(ctx context.Context, pass tkplq.Query, emit func(tkplq.ObjectID, []float64)) (tkplq.Stats, error) {
	parts, err := rt.fanPartials(ctx, pass)
	if err != nil {
		return tkplq.Stats{}, err
	}
	merged, err := core.MergePartials(parts)
	if err != nil {
		return tkplq.Stats{}, err
	}
	return core.Replay(merged).Rows(ctx, pass, emit)
}

// Version implements core.RowSource: the routed-ingest epoch.
func (rt *Router) Version() int { return int(rt.epoch.Load()) }

// endOfData resolves a te == 0 window the way a standalone node resolves it
// against its own table: the cluster's end of data is the max span high
// across shards. Every shard must answer — a missing shard could hold the
// newest records, and guessing would silently change the query's meaning.
func (rt *Router) endOfData(ctx context.Context) (tkplq.Time, error) {
	spans, err := readShards(ctx, rt, rt.groups, func(ctx context.Context, c *shardClient, acked int) (*SpanResponse, error) {
		return c.span(ctx, acked)
	})
	if err != nil {
		return 0, err
	}
	var hi tkplq.Time
	for _, sp := range spans {
		if sp.OK && tkplq.Time(sp.Hi) > hi {
			hi = tkplq.Time(sp.Hi)
		}
	}
	return hi, nil
}

// shardIngestOutcome is one shard's result of a routed ingest.
type shardIngestOutcome struct {
	sent int
	addr string
	ok   *IngestResponse
	rej  *IngestErrorResponse
	err  error
}

// ingest splits the batch by owning shard, forwards the sub-batches
// concurrently — each to its shard's current primary, never retried, never
// to a follower — and composes the outcome:
//
//   - every shard applied → 200 RouterIngestResponse
//   - a shard rejected its sub-batch and nothing was applied anywhere → 400
//     IngestErrorResponse with the index mapped back to the caller's batch
//   - a shard was unreachable and nothing was applied → 503 degraded
//     envelope naming the shard
//   - anything failed after another shard applied → 502 partial-failure
//     RouterIngestResponse listing every shard's outcome
//
// Shard sub-batches are atomic (System.Ingest validates before appending),
// but the cluster batch is not: the envelope, not a rollback, is the
// partial-failure contract. A failed leg pokes the health loop so failover
// runs promptly; the client owns the decision to re-send (the batch may
// have been applied even though the response was lost).
func (rt *Router) ingest(ctx context.Context, recs []RecordJSON) (int, any) {
	n := rt.topo.NumShards()
	byShard := make([][]RecordJSON, n)
	origIdx := make([][]int, n)
	for i, rj := range recs {
		s := rt.topo.ShardOf(iupt.ObjectID(rj.OID))
		byShard[s] = append(byShard[s], rj)
		origIdx[s] = append(origIdx[s], i)
	}

	outcomes := make([]shardIngestOutcome, n)
	eachShard(rt.groups, func(i int, g *shardGroup) {
		if len(byShard[i]) == 0 {
			return
		}
		o := &outcomes[i]
		o.sent = len(byShard[i])
		c := g.primaryClient()
		o.addr = c.addr
		o.ok, o.rej, o.err = c.ingest(ctx, byShard[i])
		if o.err != nil {
			rt.pokeHealth()
		}
		if o.ok != nil {
			g.ack(o.ok.Records)
		}
	})

	resp := RouterIngestResponse{Shards: make([]ShardIngestJSON, 0, n)}
	applied, failures := 0, 0
	var firstRej *IngestErrorResponse
	firstRejShard := -1
	var firstErr error
	for i := range outcomes {
		o := &outcomes[i]
		if o.sent == 0 {
			continue
		}
		row := ShardIngestJSON{Shard: i, Addr: o.addr, Sent: o.sent}
		switch {
		case o.ok != nil:
			row.Ingested = o.ok.Ingested
			row.Records = o.ok.Records
			applied += o.ok.Ingested
		case o.rej != nil:
			failures++
			row.Error = o.rej.Error
			row.Index = origIdx[i][o.rej.Index]
			if firstRej == nil {
				firstRej, firstRejShard = o.rej, i
			}
		default:
			failures++
			row.Error = o.err.Error()
			if firstErr == nil {
				firstErr = o.err
			}
		}
		resp.Shards = append(resp.Shards, row)
	}
	resp.Ingested = applied
	for i := range outcomes {
		if outcomes[i].ok != nil {
			resp.Records += outcomes[i].ok.Records
		}
	}
	if applied > 0 {
		// The table changed: later queries must not join pre-ingest flights.
		rt.epoch.Add(1)
	}

	switch {
	case failures == 0:
		return 200, resp
	case applied == 0 && firstErr != nil:
		rt.shardErrors.Add(1)
		return 503, firstErr
	case applied == 0:
		// Pure validation rejection, nothing applied: keep the standalone
		// 400 envelope with the index mapped to the caller's batch.
		mapped := *firstRej
		mapped.Index = origIdx[firstRejShard][firstRej.Index]
		return 400, &mapped
	default:
		if firstErr != nil {
			rt.shardErrors.Add(1)
			resp.Error = fmt.Sprintf("partial ingest: %d of %d records applied; %v", applied, len(recs), firstErr)
		} else {
			resp.Error = fmt.Sprintf("partial ingest: %d of %d records applied; shard %d (%s) rejected record %d: %s",
				applied, len(recs), firstRejShard, outcomes[firstRejShard].addr,
				origIdx[firstRejShard][firstRej.Index], firstRej.Error)
		}
		return 502, resp
	}
}

// clusterStats collects the router counters, every member's health-loop
// view, and the current primaries' own stats. A dead member does not fail
// the call: it is reported unhealthy with its error, because /v1/stats is
// exactly the endpoint an operator reaches for when a shard is down.
func (rt *Router) clusterStats(ctx context.Context) ClusterStatsJSON {
	out := ClusterStatsJSON{
		FanOuts:     rt.fanOuts.Load(),
		ShardErrors: rt.shardErrors.Load(),
		Failovers:   rt.failovers.Load(),
		IngestEpoch: rt.epoch.Load(),
		Shards:      make([]ShardStatJSON, len(rt.groups)),
	}
	out.Coalesced, out.CoalesceLed = rt.drv.Counts()
	eachShard(rt.groups, func(i int, g *shardGroup) {
		c := g.primaryClient()
		raw, err := c.stats(ctx)
		row := &out.Shards[i]
		row.Shard = i
		row.Addr = c.addr
		row.Primary = int(g.primary.Load())
		if err != nil {
			row.Error = err.Error()
		} else {
			row.Healthy = true
			row.Stats = raw
		}
		row.Requests = c.requests.Load()
		row.Errors = c.errs.Load()
		row.Retries = c.retried.Load()
		row.LastLatencyMS = float64(c.lastLatency.Load()) / 1000
		for m, mc := range g.members {
			row.Members = append(row.Members, MemberHealthJSON{
				Member:    m,
				Addr:      mc.addr,
				Primary:   m == int(g.primary.Load()),
				Reachable: mc.reachable.Load(),
				Ready:     mc.ready.Load(),
				Mode:      mc.modeName(),
				SealSeq:   mc.sealSeq.Load(),
				WALOff:    mc.walOff.Load(),
				Requests:  mc.requests.Load(),
				Errors:    mc.errs.Load(),
				Retries:   mc.retried.Load(),
				Cause:     mc.probeCause(),
			})
		}
	})
	return out
}
