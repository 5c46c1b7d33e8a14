package core

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// bitEqual fails unless two rankings are bitwise identical: same locations,
// same order, same Float64bits of every flow. This is the incremental
// engine's contract — not approximate agreement.
func bitEqual(t *testing.T, ctxMsg string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", ctxMsg, len(got), len(want))
	}
	for i := range got {
		if got[i].SLoc != want[i].SLoc {
			t.Fatalf("%s: result %d sloc = %d, want %d", ctxMsg, i, got[i].SLoc, want[i].SLoc)
		}
		if math.Float64bits(got[i].Flow) != math.Float64bits(want[i].Flow) {
			t.Fatalf("%s: result %d (sloc %d) flow = %x, want %x (not bit-identical)",
				ctxMsg, i, got[i].SLoc, math.Float64bits(got[i].Flow), math.Float64bits(want[i].Flow))
		}
	}
}

// TestSubscribeHorizonUnderBarrier: the feed never claims records its window
// has not reached. Two batches that land while the monitor is busy are
// drained by one evaluation and counted in Update.Records, so the later
// one's timestamps must move the window too — the horizon is derived from
// the same drain that counts the records. (When the horizon was sampled
// before the drain, this feed settled on records 2, window [0, 3] with a
// T = 20 record in the table, until some later ingest.)
func TestSubscribeHorizonUnderBarrier(t *testing.T) {
	fig := indoor.Figure1Space()
	live := &liveTable{eng: NewEngine(fig.Space, Options{Workers: 1}), tb: iupt.NewTable()}
	sub, err := live.eng.Subscribe(context.Background(), live.cfg(),
		Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 3, Window: 5, SLocs: fig.SLocs[:]})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	set := func(p indoor.PLocID) iupt.SampleSet { return iupt.SampleSet{{Loc: p, Prob: 1}} }
	// The eval loop, woken by the T = 3 ingest, waits on the monitor's lock
	// until the late batch is in the mailbox too.
	sub.mon.mu.Lock()
	live.ingest(iupt.Record{OID: 1, T: 3, Samples: set(fig.PLocs[3])})
	live.ingest(iupt.Record{OID: 2, T: 20, Samples: set(fig.PLocs[5])})
	sub.mon.mu.Unlock()

	// Nothing is ingested after these two records, so the first update that
	// covers both is what the feed settles on.
	last := awaitUpdate(t, sub, func(u Update) bool { return u.Records == 2 })
	if last.Ts != 15 || last.Te != 20 {
		t.Fatalf("feed settled on records 2, window [%d, %d]; want window [15, 20]", last.Ts, last.Te)
	}
}

// TestSubscribeJoinerKeepsPeersCurrent: a subscription that joins a shared
// monitor while a batch waits in its mailbox must not evaluate that batch
// for itself only. Whoever evaluates first — the eval loop or the joiner —
// the subscriber already there is sent the change, and the joiner's first
// update is that same update: same Seq, same ranking.
func TestSubscribeJoinerKeepsPeersCurrent(t *testing.T) {
	fig := indoor.Figure1Space()
	live := &liveTable{eng: NewEngine(fig.Space, Options{Workers: 1}), tb: iupt.NewTable()}
	set := func(p indoor.PLocID) iupt.SampleSet { return iupt.SampleSet{{Loc: p, Prob: 1}} }
	live.ingest(iupt.Record{OID: 1, T: 1, Samples: set(fig.PLocs[0])})
	q := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: len(fig.SLocs), Window: 10, SLocs: fig.SLocs[:]}
	a, err := live.eng.Subscribe(context.Background(), live.cfg(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	awaitUpdate(t, a, func(u Update) bool { return u.Records == 1 })

	type joined struct {
		sub *Subscription
		err error
	}
	bc := make(chan joined, 1)
	a.mon.mu.Lock()
	live.ingest(iupt.Record{OID: 2, T: 2, Samples: set(fig.PLocs[5])})
	go func() {
		b, err := live.eng.Subscribe(context.Background(), live.cfg(), q)
		bc <- joined{b, err}
	}()
	a.mon.mu.Unlock()

	got := awaitUpdate(t, a, func(u Update) bool { return u.Records == 2 })
	j := <-bc
	if j.err != nil {
		t.Fatal(j.err)
	}
	defer j.sub.Close()
	first := awaitUpdate(t, j.sub, func(Update) bool { return true })
	if first.Records != 2 || first.Seq != got.Seq {
		t.Fatalf("joiner's first update is seq %d over %d records; its peer was sent seq %d over 2",
			first.Seq, first.Records, got.Seq)
	}
	bitEqual(t, "joiner against its peer", first.Results, got.Results)
}

// TestSubscribeStreamEquivalence subscribes while a writer goroutine ingests
// concurrently, then replays every received update against a from-scratch
// evaluation of the update's own window: each pushed ranking must be
// bit-identical, and sequence numbers must be non-decreasing.
func TestSubscribeStreamEquivalence(t *testing.T) {
	fig := indoor.Figure1Space()
	eng := NewEngine(fig.Space, Options{Workers: 2})
	tb := iupt.NewTable()
	var mu sync.Mutex

	q := append([]indoor.SLocID(nil), fig.SLocs[:]...)
	sub, err := eng.Subscribe(context.Background(), SubscribeConfig{Table: tb, Barrier: &mu},
		Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: len(q), Window: 10, SLocs: q})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	recs := make([]iupt.Record, 60)
	for i := range recs {
		recs[i] = iupt.Record{
			OID:     iupt.ObjectID(rng.Intn(4) + 1),
			T:       iupt.Time(i/2 + rng.Intn(3)),
			Samples: randSampleSet(rng, fig.PLocs[:], 3),
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < len(recs); i += 3 {
			batch := recs[i:min(i+3, len(recs))]
			mu.Lock()
			for _, rec := range batch {
				tb.Append(rec)
			}
			eng.NotifyAppend(tb, batch)
			mu.Unlock()
		}
	}()
	<-done
	// The writer is finished; drain the feed until the update that covers
	// every record arrives (waiting on the event, not on a sleep), then close
	// and collect whatever is still buffered.
	final := iupt.Time(0)
	for _, rec := range recs {
		if rec.T > final {
			final = rec.T
		}
	}
	var got []Update
	deadline := time.After(5 * time.Second)
	for caughtUp := false; !caughtUp; {
		select {
		case u := <-sub.Updates():
			got = append(got, u)
			caughtUp = u.Records == len(recs)
		case <-deadline:
			t.Fatal("subscription never caught up with the writer")
		}
	}
	// No lock here: MonitorStats takes the monitor's lock, which the eval loop
	// holds while waiting for the barrier (see SubscribeConfig.Barrier).
	if stats := eng.MonitorStats(); len(stats) != 1 || stats[0].Observed != len(recs) || stats[0].Evals == 0 {
		t.Errorf("monitor stats after catching up = %+v, want one monitor that observed %d records", stats, len(recs))
	}
	sub.Close()
	for u := range sub.Updates() {
		got = append(got, u)
	}

	// Replay: each update declares the table prefix it covered (Records), so
	// it must be bit-identical to a from-scratch evaluation of its own window
	// over exactly that prefix — for all three algorithms.
	ref := NewEngine(fig.Space, Options{Workers: 3})
	var lastSeq uint64
	var lastUpdate *Update
	for _, u := range got {
		if u.Seq < lastSeq {
			t.Fatalf("update seq went backward: %d after %d", u.Seq, lastSeq)
		}
		lastSeq = u.Seq
		if u.Records < 0 || u.Records > len(recs) {
			t.Fatalf("update covers %d records, table has %d", u.Records, len(recs))
		}
		prefix := iupt.NewTable()
		horizon := iupt.Time(0)
		for _, rec := range recs[:u.Records] {
			prefix.Append(rec)
			horizon = max(horizon, rec.T)
		}
		if u.Te != horizon || u.Ts != max(0, horizon-10) {
			t.Fatalf("update over the first %d records covers [%d, %d], want [%d, %d]",
				u.Records, u.Ts, u.Te, max(0, horizon-10), horizon)
		}
		for _, algo := range []Algorithm{AlgoNaive, AlgoNestedLoop, AlgoBestFirst} {
			want, _, err := ref.TopK(prefix, q, len(q), u.Ts, u.Te, algo)
			if err != nil {
				t.Fatal(err)
			}
			bitEqual(t, "subscribe update "+algo.String(), u.Results, want)
		}
		cp := u
		lastUpdate = &cp
	}
	if lastUpdate.Te != final {
		t.Errorf("final update window ends at %d, want %d", lastUpdate.Te, final)
	}
	select {
	case <-sub.Done():
	default:
		t.Error("Done not closed after Close")
	}
}

// TestSubscribeCoalescing: identical subscriptions share one monitor — and a
// subscription has no algorithm, so ones that differ only in Query.Algorithm
// are identical and an ingest is evaluated once for all of them; differing
// parameters do not share; DisableCoalescing is refused, since a private
// monitor would compute the same updates; the monitor dies with its last
// subscription.
func TestSubscribeCoalescing(t *testing.T) {
	fig := indoor.Figure1Space()
	eng := NewEngine(fig.Space, Options{})
	tb := iupt.NewTable()
	var mu sync.Mutex
	cfg := SubscribeConfig{Table: tb, Barrier: &mu}
	q := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 3, Window: 10, SLocs: fig.SLocs[:]}

	a, err := eng.Subscribe(context.Background(), cfg, q)
	if err != nil {
		t.Fatal(err)
	}
	asNL := q
	asNL.Algorithm = AlgoNestedLoop
	b, err := eng.Subscribe(context.Background(), cfg, asNL)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.MonitorStats(); len(st) != 1 || st[0].Subscribers != 2 || st[0].Evals != 1 {
		t.Fatalf("subscriptions differing only in Algorithm: got %+v, want one monitor with 2 subscribers built once", st)
	}
	rec := iupt.Record{OID: 1, T: 5, Samples: iupt.SampleSet{{Loc: fig.PLocs[0], Prob: 1}}}
	mu.Lock()
	tb.Append(rec)
	eng.NotifyAppend(tb, []iupt.Record{rec})
	mu.Unlock()
	for _, sub := range []*Subscription{a, b} {
		awaitUpdate(t, sub, func(u Update) bool { return u.Records == 1 })
	}
	if st := eng.MonitorStats(); len(st) != 1 || st[0].Evals != 2 {
		t.Fatalf("one ingest over two subscribers: got %+v, want one monitor and one more evaluation", st)
	}

	wide := q
	wide.Window = 20
	c, err := eng.Subscribe(context.Background(), cfg, wide)
	if err != nil {
		t.Fatal(err)
	}
	private := q
	private.DisableCoalescing = true
	if d, err := eng.Subscribe(context.Background(), cfg, private); err == nil || !strings.Contains(err.Error(), "DisableCoalescing") {
		if d != nil {
			d.Close()
		}
		t.Fatalf("DisableCoalescing: got error %v, want a refusal naming the field", err)
	}
	if st := eng.MonitorStats(); len(st) != 2 {
		t.Fatalf("got %d monitors, want 2 (shared, wide)", len(st))
	}

	for _, sub := range []*Subscription{a, b, c} {
		sub.Close()
	}
	if st := eng.MonitorStats(); len(st) != 0 {
		t.Fatalf("after closing all subscriptions: %d monitors remain", len(st))
	}
}

// TestSubscriptionCtxCancel: canceling the subscribing context closes the
// feed like Close, also when the context is canceled before Subscribe; a
// Close before the cancellation leaves nothing for it to close.
func TestSubscriptionCtxCancel(t *testing.T) {
	fig := indoor.Figure1Space()
	q := Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: 3, Window: 10, SLocs: fig.SLocs[:]}
	subscribe := func(t *testing.T, live *liveTable, ctx context.Context) *Subscription {
		t.Helper()
		sub, err := live.eng.Subscribe(ctx, live.cfg(), q)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	ended := func(t *testing.T, live *liveTable, sub *Subscription) {
		t.Helper()
		select {
		case <-sub.Done():
		case <-time.After(5 * time.Second):
			t.Fatal("Done not closed after context cancellation")
		}
		for range sub.Updates() {
		} // must terminate: channel closed
		if st := live.eng.MonitorStats(); len(st) != 0 {
			t.Fatalf("monitor survived context cancellation: %+v", st)
		}
	}
	newLive := func() *liveTable {
		return &liveTable{eng: NewEngine(fig.Space, Options{}), tb: iupt.NewTable()}
	}

	t.Run("cancel", func(t *testing.T) {
		live := newLive()
		ctx, cancel := context.WithCancel(context.Background())
		sub := subscribe(t, live, ctx)
		cancel()
		ended(t, live, sub)
	})
	t.Run("canceled before subscribe", func(t *testing.T) {
		live := newLive()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ended(t, live, subscribe(t, live, ctx))
	})
	t.Run("close then cancel", func(t *testing.T) {
		live := newLive()
		ctx, cancel := context.WithCancel(context.Background())
		sub := subscribe(t, live, ctx)
		peer := subscribe(t, live, context.Background())
		defer peer.Close()
		sub.Close()
		cancel()
		// A second release of the shared monitor would shut it down under
		// its remaining subscriber.
		live.ingest(iupt.Record{OID: 1, T: 5, Samples: iupt.SampleSet{{Loc: fig.PLocs[0], Prob: 1}}})
		awaitUpdate(t, peer, func(u Update) bool { return u.Records == 1 })
		if st := live.eng.MonitorStats(); len(st) != 1 || st[0].Subscribers != 1 {
			t.Fatalf("after Close then cancel: got %+v, want one monitor with one subscriber", st)
		}
		peer.Close()
		ended(t, live, sub)
	})
}

// TestSubscriptionGoroutines: a monitor runs one goroutine, its eval loop,
// whatever its number of subscribers; a subscription watches its context
// without one. Eight subscriptions on one monitor add one goroutine, eight
// split over two monitors add two, and closing them all takes them away:
// each monitor's loop has exited by the time its last Close returns.
func TestSubscriptionGoroutines(t *testing.T) {
	fig := indoor.Figure1Space()
	live := &liveTable{eng: NewEngine(fig.Space, Options{Workers: 1}), tb: iupt.NewTable()}
	live.ingest(iupt.Record{OID: 1, T: 5, Samples: iupt.SampleSet{{Loc: fig.PLocs[0], Prob: 1}}})
	// Earlier tests' eval loops may still be on their way out: the base is
	// taken once the count has held still for 50 ms.
	base, still := runtime.NumGoroutine(), 0
	for deadline := time.Now().Add(5 * time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n == base {
			still++
		} else {
			base, still = n, 0
		}
	}
	await := func(want int) int { // the goroutine count once it reads want, or after 5 s
		n := runtime.NumGoroutine()
		for deadline := time.Now().Add(5 * time.Second); n != want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
			time.Sleep(10 * time.Millisecond)
		}
		return n
	}
	for _, tc := range []struct {
		name string
		ks   []int // each subscription's K: one monitor per distinct K
		mons int
	}{
		{"one monitor", []int{3, 3, 3, 3, 3, 3, 3, 3}, 1},
		{"two monitors", []int{3, 2, 3, 2, 3, 2, 3, 2}, 2},
	} {
		var subs []*Subscription
		var cancels []context.CancelFunc
		for _, k := range tc.ks {
			ctx, cancel := context.WithCancel(context.Background())
			cancels = append(cancels, cancel)
			sub, err := live.eng.Subscribe(ctx, live.cfg(), Query{Kind: KindTopK, K: k, Window: 10, SLocs: fig.SLocs[:]})
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
		}
		if st := live.eng.MonitorStats(); len(st) != tc.mons {
			t.Fatalf("%s: %d monitors, want %d", tc.name, len(st), tc.mons)
		}
		if got := await(base+tc.mons) - base; got != tc.mons {
			t.Errorf("%s: %d subscriptions added %d goroutines, want %d", tc.name, len(subs), got, tc.mons)
		}
		left := make(map[*monitor]int)
		for _, sub := range subs {
			left[sub.mon]++
		}
		for i, sub := range subs {
			sub.Close()
			cancels[i]()
			if left[sub.mon]--; left[sub.mon] == 0 {
				select {
				case <-sub.mon.loopDone:
				default:
					t.Errorf("%s: the last Close returned before its monitor's eval loop exited", tc.name)
				}
			}
		}
		if got := await(base) - base; got != 0 {
			t.Errorf("%s: %d goroutines left after every Close", tc.name, got)
		}
	}
}

// TestSubscriptionSlowConsumer: a subscriber that never reads loses oldest
// updates to conflation — bounded buffer, Dropped counted, evaluation never
// blocked.
func TestSubscriptionSlowConsumer(t *testing.T) {
	fig := indoor.Figure1Space()
	eng := NewEngine(fig.Space, Options{Workers: 1})
	tb := iupt.NewTable()
	var mu sync.Mutex
	sub, err := eng.Subscribe(context.Background(), SubscribeConfig{Table: tb, Barrier: &mu},
		Query{Kind: KindTopK, Algorithm: AlgoBestFirst, K: len(fig.SLocs), Window: 1000, SLocs: fig.SLocs[:]})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Far more ranking changes than the buffer holds: each record lands in a
	// fresh location pattern, so flows keep changing.
	rng := rand.New(rand.NewSource(5))
	deadline := time.After(10 * time.Second)
	for i := 0; dropped(sub) == 0; i++ {
		rec := iupt.Record{
			OID:     iupt.ObjectID(i%3 + 1),
			T:       iupt.Time(i),
			Samples: randSampleSet(rng, fig.PLocs[:], 3),
		}
		mu.Lock()
		tb.Append(rec)
		eng.NotifyAppend(tb, []iupt.Record{rec})
		mu.Unlock()
		select {
		case <-deadline:
			t.Fatal("no conflation after sustained unread updates")
		default:
		}
		time.Sleep(time.Millisecond)
	}
	// The newest buffered update must carry the conflation count.
	u := <-sub.Updates()
	if u.Seq == 0 {
		t.Error("buffered update has zero seq")
	}
}
