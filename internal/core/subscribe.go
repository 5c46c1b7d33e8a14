package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// subscriptionBuffer is the per-subscription channel capacity. A consumer
// that falls further behind loses the *oldest* buffered updates first (each
// Update carries the full current ranking, so the newest one supersedes
// everything dropped; Update.Dropped reports the loss).
const subscriptionBuffer = 16

// Update is one pushed change of a subscribed ranking: the full top-k over
// the window [Ts, Te], sent whenever the ranking or any flow changes (and
// once on subscription, as the initial snapshot). Results are bit-identical
// to a from-scratch TkPLQ evaluation of the same window.
type Update struct {
	// Seq numbers the monitor's pushed changes, starting at 1; the initial
	// snapshot repeats the monitor's current number (0 if nothing has been
	// pushed yet). Gaps in the sequence observed by a subscriber correspond
	// exactly to its conflated (dropped) updates.
	Seq uint64
	// Ts and Te are the evaluated window, [Te-Window, Te] clamped at 0.
	Te iupt.Time
	Ts iupt.Time
	// Results is the current top-k ranking.
	Results []Result
	// Records is the table record count this evaluation reflects: the update
	// is bit-identical to a from-scratch evaluation of [Ts, Te] over the
	// table's first Records records (in arrival order).
	Records int
	// Stats describes the incremental evaluation that produced this update:
	// ObjectsTotal counts the objects retained in the window,
	// ObjectsComputed only those whose summaries had to be recomputed.
	Stats Stats
	// Dropped is the total number of updates this subscription has lost to
	// conflation so far (slow consumer; see subscriptionBuffer).
	Dropped int64
}

// Subscription is a live feed of ranking changes, created by
// Engine.Subscribe. Receive from Updates until it is closed; Close (or
// cancellation of the subscribing context) releases the feed. When the last
// subscription of a monitor closes, the monitor itself shuts down.
type Subscription struct {
	mon  *monitor
	ch   chan Update
	done chan struct{}
	once sync.Once

	stopCtx func() bool // deregisters Close from the context; guarded by mon.mu
	dropped int64       // guarded by mon.mu
}

// Updates returns the feed channel. It is closed when the subscription ends
// (Close or context cancellation).
func (s *Subscription) Updates() <-chan Update { return s.ch }

// Done is closed when the subscription has fully ended.
func (s *Subscription) Done() <-chan struct{} { return s.done }

// Close ends the subscription: the Updates channel is closed and the
// monitor's reference count drops, shutting the monitor down if this was its
// last subscriber; then Close returns only after the monitor's goroutine has
// exited, so it must not be called while holding SubscribeConfig.Barrier.
// Idempotent and safe to call concurrently with delivery.
// Done fires last, once the monitor reference is released, so whoever
// observes it no longer finds this subscription in MonitorStats.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.mon.detachSub(s)
		s.mon.eng.mons.release(s.mon)
		close(s.done)
	})
}

// push delivers an update, conflating when the subscriber lags: the oldest
// buffered update is discarded to make room, never the newest. Runs under
// mon.mu — the same lock that closes s.ch — so it never sends on a closed
// channel, and delivery order matches evaluation order.
func (s *Subscription) push(u Update) {
	u.Dropped = s.dropped
	for {
		select {
		case s.ch <- u:
			return
		default:
		}
		select {
		case <-s.ch:
			s.dropped++
			u.Dropped = s.dropped
		default:
			// The consumer drained the buffer between our two selects; retry
			// the send.
		}
	}
}

// SubscribeConfig tells Engine.Subscribe which table to watch and how its
// one read of it is serialized.
type SubscribeConfig struct {
	// Table is the table the feed watches. Required.
	Table *iupt.Table
	// Barrier serializes the feed's build — its one table read — with the
	// owner's append path; appends and their NotifyAppend announcement must
	// happen under it. Required. After the build the feed never takes it
	// again: every later record comes from the announcements. The lock order
	// is monitor lock, then Barrier — the Subscribe that builds a monitor
	// holds the monitor's lock while it waits for the Barrier. A Barrier
	// holder must therefore not call MonitorStats, Subscribe or
	// Subscription.Close, which take a monitor lock (NotifyAppend does not);
	// the last Close also waits for the monitor's eval loop, which may be
	// waiting for the Barrier.
	Barrier sync.Locker
}

// Subscribe opens a live feed of the query's top-k ranking over cfg.Table.
// The query's Window (required, positive) slides with the data: every
// ingested batch announced via NotifyAppend triggers an incremental
// re-evaluation over [maxT-Window, maxT], and an Update is pushed whenever
// the ranking or any flow differs — bitwise — from the previous one. A new
// subscription first brings its monitor up to date exactly as a tick does
// (so its peers are sent any change), then receives the monitor's current
// update as its first.
//
// Identical subscriptions (same table, query set, K, Window and
// evaluation-changing overrides) always share one monitor: one incremental
// evaluation feeds any number of subscribers. A private monitor would compute
// the same updates, so Query.DisableCoalescing is refused. Query.Ts and
// Query.Te are ignored, and so is Query.Algorithm, exactly as DoPartial
// ignores it: the feed has one incremental evaluation, whose updates are
// bit-identical to Do under all three algorithms.
//
// Canceling ctx closes the subscription exactly like Close; no goroutine
// waits on it. The returned subscription never blocks evaluation: a slow
// consumer loses old updates to conflation (Update.Dropped), never delays the
// monitor or its peers.
func (e *Engine) Subscribe(ctx context.Context, cfg SubscribeConfig, q Query) (*Subscription, error) {
	if cfg.Table == nil {
		return nil, fmt.Errorf("core: nil table")
	}
	if cfg.Barrier == nil {
		return nil, fmt.Errorf("core: nil barrier")
	}
	if q.DisableCoalescing {
		return nil, fmt.Errorf("core: subscribe does not take DisableCoalescing: identical subscriptions always share a monitor")
	}
	if q.Kind != KindTopK {
		return nil, fmt.Errorf("core: subscribe supports top-k queries only, got %s", q.Kind)
	}
	if q.Window <= 0 {
		return nil, fmt.Errorf("core: subscribe window must be positive, got %d", q.Window)
	}
	k, err := e.validateTopK(q.SLocs, q.K)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	ev := e.view(q)
	canon := canonicalSLocs(q.SLocs)
	key := monitorKey{
		table:   cfg.Table,
		k:       k,
		window:  q.Window,
		workers: ev.opts.workerCount(),
		slocs:   slocKey(canon),
	}
	return e.mons.acquire(ev, cfg, key, canon).attach(ctx), nil
}

// attach brings the monitor up to the data through the eval loop's own step
// — so a change waiting in the mailbox reaches the subscribers already there
// — then registers a new subscription, sends it the update its peers were
// last sent, and has ctx's cancellation close it. The caller's reference
// keeps the monitor open. Close is registered under m.mu, which detachSub
// takes too, so a context canceled already cannot close the subscription
// before it is fully attached.
func (m *monitor) attach(ctx context.Context) *Subscription {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evalAndPushLocked()
	sub := &Subscription{
		mon:  m,
		ch:   make(chan Update, subscriptionBuffer),
		done: make(chan struct{}),
	}
	m.subs[sub] = true
	sub.push(m.updateLocked())
	sub.stopCtx = context.AfterFunc(ctx, sub.Close)
	return sub
}

// detachSub removes the subscription and closes its channel (under m.mu, so
// no push can race the close). Subscription.Close calls it exactly once.
func (m *monitor) detachSub(s *Subscription) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s.stopCtx()
	delete(m.subs, s)
	close(s.ch)
}

// updateLocked assembles an Update from the monitor's current state.
func (m *monitor) updateLocked() Update {
	return Update{
		Seq:     m.seq,
		Ts:      m.ts,
		Te:      m.te,
		Results: append([]Result(nil), m.results...),
		Records: m.covered,
		Stats:   m.stats,
	}
}

// evalLoop is the monitor's single evaluation goroutine: it wakes on every
// announced ingest, re-evaluates incrementally, and pushes an update iff the
// ranking changed. It runs from the monitor's creation to its shutdown,
// which waits for loopDone.
func (m *monitor) evalLoop() {
	defer close(m.loopDone)
	for {
		select {
		case <-m.stop:
			return
		case <-m.wake:
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return
		}
		m.evalAndPushLocked()
		m.mu.Unlock()
	}
}

// evalAndPushLocked re-evaluates at the data's horizon and pushes an update
// to every subscriber iff the results changed bitwise. The build, the first
// evaluation, is no change: it runs before the first subscriber registers.
func (m *monitor) evalAndPushLocked() {
	prev, prevBuilt := m.results, m.built
	m.refreshLocked()
	if !prevBuilt || resultsEqual(prev, m.results) {
		return
	}
	m.seq++
	u := m.updateLocked()
	for sub := range m.subs {
		sub.push(u)
	}
	m.pushed++
}

// resultsEqual reports whether two rankings are bitwise identical: same
// locations, same order, same flow bits. NaN flows compare equal to
// themselves, so a pathological ranking does not push forever.
func resultsEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].SLoc != b[i].SLoc || math.Float64bits(a[i].Flow) != math.Float64bits(b[i].Flow) {
			return false
		}
	}
	return true
}

// NotifyAppend announces records appended to a shared table to every monitor
// watching it. Call it right after the append, under the same lock that
// serializes the monitors' builds (SubscribeConfig.Barrier) — that ordering
// is what makes delivery exactly-once and in table order: a monitor either
// reads the records in its build (and discards the announcement with the
// mailbox it drains there), or receives them here, never both, never
// neither.
func (e *Engine) NotifyAppend(table *iupt.Table, recs []iupt.Record) {
	e.mons.notify(table, recs)
}

// MonitorStat describes one live monitor for introspection (e.g. a server
// stats endpoint).
type MonitorStat struct {
	// Query is the canonical (ascending) query set.
	Query []indoor.SLocID
	// K and Window echo the monitor's parameters.
	K      int
	Window iupt.Time
	// Subscribers is the number of live subscriptions coalesced onto this
	// monitor.
	Subscribers int
	// Evals counts incremental evaluations; DirtyObjects the object
	// summaries recomputed across them (DirtyObjects/Evals is the average
	// incremental write amplification).
	Evals        int64
	DirtyObjects int64
	// Updates counts pushed ranking changes; Observed records announced.
	Updates  int64
	Observed int
}

// MonitorStats reports every live monitor on this engine, in creation order.
func (e *Engine) MonitorStats() []MonitorStat {
	return e.mons.statsAll()
}

// monitorKey identifies subscriptions that may share one monitor: exactly
// those over the same table, k, window, worker pool and set of S-locations.
type monitorKey struct {
	table   *iupt.Table
	k       int
	window  iupt.Time
	workers int
	slocs   string // slocKey of the query set
}

// monitorRegistry tracks the engine's live monitors, by key for sharing and
// in creation order for NotifyAppend dispatch and MonitorStats. It is shared
// by every per-query engine view (a pointer field on Engine, like the cache
// and the coalescer).
type monitorRegistry struct {
	mu    sync.Mutex
	byKey map[monitorKey]*monitor
	all   []*monitor // creation order; replaced, never edited in place, on release
}

func newMonitorRegistry() *monitorRegistry {
	return &monitorRegistry{byKey: make(map[monitorKey]*monitor)}
}

// acquire returns the monitor for key with its reference count bumped,
// creating it, registering it and starting its eval loop on first use.
func (r *monitorRegistry) acquire(ev *Engine, cfg SubscribeConfig, key monitorKey, canon []indoor.SLocID) *monitor {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.byKey[key]
	if m == nil {
		m = ev.newMonitor(cfg, canon, key.k, key.window)
		m.key = key
		r.byKey[key] = m
		r.all = append(r.all, m)
		go m.evalLoop()
	}
	m.refs++
	return m
}

// release drops one reference; the last one deregisters the monitor and
// shuts it down. all gets a new backing array, so a snapshot notify or
// statsAll took keeps reading the old one.
func (r *monitorRegistry) release(m *monitor) {
	r.mu.Lock()
	m.refs--
	dead := m.refs == 0
	if dead {
		delete(r.byKey, m.key)
		r.all = slices.DeleteFunc(slices.Clone(r.all), func(x *monitor) bool { return x == m })
	}
	r.mu.Unlock()
	if dead {
		m.shutdown()
	}
}

// snapshot returns the live monitors in creation order. The slice is never
// written again: acquire appends past its end and release replaces it.
func (r *monitorRegistry) snapshot() []*monitor {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.all
}

// notify fans an announced append out to the table's monitors. The mailbox
// enqueues happen outside the registry lock; the caller holds the table's
// ingest lock throughout, which is what keeps announcements ordered and
// exactly-once per monitor.
func (r *monitorRegistry) notify(table *iupt.Table, recs []iupt.Record) {
	for _, m := range r.snapshot() {
		if m.table == table {
			m.enqueue(recs)
		}
	}
}

// statsAll snapshots every live monitor's counters in creation order.
func (r *monitorRegistry) statsAll() []MonitorStat {
	mons := r.snapshot()
	out := make([]MonitorStat, 0, len(mons))
	for _, m := range mons {
		m.mu.Lock()
		st := MonitorStat{
			Query:        append([]indoor.SLocID(nil), m.query...),
			K:            m.k,
			Window:       m.window,
			Subscribers:  len(m.subs),
			Evals:        m.evals,
			DirtyObjects: m.dirtyTotal,
			Updates:      m.pushed,
		}
		m.mu.Unlock()
		st.Observed = m.Observed()
		out = append(out, st)
	}
	return out
}
