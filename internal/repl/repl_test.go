package repl

// Crash-point fault-injection sweep over the replication protocol. Three
// killers, each swept across every step of a clean run:
//
//   - a primary-side write fault at the k-th stream write (odd k also ships
//     a torn half-frame first), for every k of a clean session;
//   - a follower crash (context canceled, process state dropped) at the k-th
//     received frame, rejoining as a brand-new Follower over the same
//     directory;
//   - a primary kill mid-window: the serving process dies, the store is
//     reopened (WAL recovery) behind a second address, and the follower
//     rotates to it over a live handshake.
//
// After every injected fault the follower must converge to a state
// bit-identical to the primary's — same durable position, byte-equal
// partition files, byte-equal WAL prefix, and an identical answer battery
// (rankings AND float64 flows) — with no assertion weakened by where the
// fault landed. Run under -race in CI.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"tkplq"
	"tkplq/internal/parts"
	"tkplq/internal/retry"
)

// replTestData mirrors the root package's durable test dataset: small enough
// to sweep dozens of crash points, rich enough that answers exercise real
// float accumulation.
func replTestData(t testing.TB) (*tkplq.Building, *tkplq.Table) {
	t.Helper()
	b, err := tkplq.GenerateBuilding(tkplq.DefaultBuildingConfig())
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := tkplq.SimulateMovement(b, tkplq.MovementConfig{
		Objects: 6, Duration: 600, MaxSpeed: 1.0,
		MinDwell: 60, MaxDwell: 240,
		MinLifespan: 300, MaxLifespan: 600,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	table, err := tkplq.GenerateIUPT(b, trajs, tkplq.PositioningConfig{
		MaxPeriod: 3, MSS: 4, ErrorRadius: 5, Gamma: 0.2, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b, table
}

// replBatches builds ten valid 3-record batches past the generated span.
func replBatches(numPLocs int) [][]tkplq.Record {
	batches := make([][]tkplq.Record, 10)
	for i := range batches {
		recs := make([]tkplq.Record, 3)
		for j := range recs {
			p1 := tkplq.PLocID((i*3 + j) % numPLocs)
			p2 := tkplq.PLocID((i*3 + j + 1) % numPLocs)
			recs[j] = tkplq.Record{
				OID: tkplq.ObjectID(100 + i),
				T:   tkplq.Time(610 + int64(i)*5 + int64(j)),
				Samples: tkplq.SampleSet{
					{Loc: p1, Prob: 0.6},
					{Loc: p2, Prob: 0.4},
				},
			}
		}
		batches[i] = recs
	}
	return batches
}

// battery evaluates the determinism battery (all three TkPLQ algorithms,
// density, one flow) on a system.
func battery(t testing.TB, sys *tkplq.System) []*tkplq.Response {
	t.Helper()
	queries := []tkplq.Query{
		{Kind: tkplq.KindTopK, Algorithm: tkplq.BestFirst, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations()},
		{Kind: tkplq.KindTopK, Algorithm: tkplq.NestedLoop, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations()},
		{Kind: tkplq.KindTopK, Algorithm: tkplq.Naive, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations()},
		{Kind: tkplq.KindDensity, K: 5, Ts: 0, Te: 700, SLocs: sys.AllSLocations()},
		{Kind: tkplq.KindFlow, Ts: 0, Te: 700, SLocs: sys.AllSLocations()[:1]},
	}
	out := make([]*tkplq.Response, len(queries))
	for i, q := range queries {
		resp, err := sys.Do(context.Background(), q)
		if err != nil {
			t.Fatalf("battery query %d: %v", i, err)
		}
		out[i] = resp
	}
	return out
}

// injector fails the n-th Write call observed across a primary's replication
// responses; odd faults also leak a torn half-write first, so the follower
// sees a corrupt frame rather than a clean EOF. Once fired it passes
// everything through — the reconnect must converge.
type injector struct {
	mu     sync.Mutex
	armed  bool
	failAt int
	torn   bool
	writes int
	fired  bool
}

func (in *injector) arm(failAt int, torn bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed, in.failAt, in.torn, in.writes, in.fired = true, failAt, torn, 0, false
}

func (in *injector) observedWrites() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.writes
}

func (in *injector) didFire() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired
}

type faultyWriter struct {
	in *injector
	w  io.Writer
}

func (fw *faultyWriter) Write(p []byte) (int, error) {
	fw.in.mu.Lock()
	n := fw.in.writes
	fw.in.writes++
	fire := fw.in.armed && !fw.in.fired && n == fw.in.failAt
	torn := fw.in.torn
	if fire {
		fw.in.fired = true
	}
	fw.in.mu.Unlock()
	if fire {
		if torn && len(p) > 1 {
			fw.w.Write(p[:len(p)/2])
		}
		return 0, errors.New("injected write fault")
	}
	return fw.w.Write(p)
}

// testPrimary is a live primary: partitioned store, system, source, and an
// HTTP endpoint speaking the replication protocol through the injector.
type testPrimary struct {
	t     *testing.T
	dir   string
	b     *tkplq.Building
	sys   *tkplq.System
	store *tkplq.PartitionedStore
	src   *Source
	inj   *injector
	srv   *httptest.Server
	addr  string
}

// replMux builds the primary's handler the way the real server mounts it:
// pre-write Serve errors map ErrBootstrapRequired to 409, anything else to
// 503; acks are fire-and-forget.
func replMux(src *Source, inj *injector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathReplicate, func(w http.ResponseWriter, r *http.Request) {
		var h Handshake
		if err := decodeJSON(r.Body, &h); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fl := w.(http.Flusher)
		wrote := false
		var out io.Writer = writerFunc(func(p []byte) (int, error) {
			wrote = true
			return w.Write(p)
		})
		if inj != nil {
			out = &faultyWriter{in: inj, w: out}
		}
		err := src.Serve(r.Context(), out, func() { fl.Flush() }, h)
		if err != nil && !wrote {
			if errors.Is(err, ErrBootstrapRequired) {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
	})
	mux.HandleFunc(PathReplicateAck, func(w http.ResponseWriter, r *http.Request) {
		var a Ack
		if err := decodeJSON(r.Body, &a); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		src.Ack(a)
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(io.LimitReader(r, 1<<20)).Decode(v)
}

// newTestPrimary builds a primary with nSealed+1 sealed partitions (the seed
// dataset seals as partition 1) and nLive further batches in the unsealed
// WAL tail, then serves it over HTTP. Batches nSealed+nLive onward stay
// unused, for ingest after a restart.
func newTestPrimary(t *testing.T, nSealed, nLive int) *testPrimary {
	t.Helper()
	p := &testPrimary{t: t, dir: t.TempDir(), inj: &injector{}}
	store, recovered, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: p.dir, KeepSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	p.store = store
	b, seed := replTestData(t)
	p.b = b
	sys, err := tkplq.NewSystem(b.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(store)
	p.sys = sys
	if err := sys.Ingest(seed.SortedRecords()); err != nil {
		t.Fatal(err)
	}
	if err := sys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	batches := replBatches(b.Space.NumPLocations())
	for i := 0; i < nSealed; i++ {
		if err := sys.Ingest(batches[i]); err != nil {
			t.Fatal(err)
		}
		if err := sys.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	for i := nSealed; i < nSealed+nLive; i++ {
		if err := sys.Ingest(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.src = NewSource(SourceConfig{Store: store, HeartbeatEvery: 50 * time.Millisecond, Logf: t.Logf})
	p.srv = httptest.NewServer(replMux(p.src, p.inj))
	t.Cleanup(p.srv.Close)
	p.addr = strings.TrimPrefix(p.srv.URL, "http://")
	return p
}

// testFollower wraps one Follower run over a directory, capturing the store
// and system its Open callback builds.
type testFollower struct {
	t      *testing.T
	dir    string
	fol    *Follower
	cancel context.CancelFunc
	runErr chan error

	mu    sync.Mutex
	sys   *tkplq.System
	store *tkplq.PartitionedStore
}

func (f *testFollower) system() *tkplq.System {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sys
}

func (f *testFollower) partStore() *tkplq.PartitionedStore {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.store
}

// stop cancels the run, waits it out, and closes the follower's store so the
// directory (and its flock) can be reused.
func (f *testFollower) stop() {
	f.cancel()
	<-f.runErr
	if st := f.partStore(); st != nil {
		st.Close()
	}
}

// startFollower boots a Follower over dir against the given primaries, with
// an optional per-frame hook (the crash injection point).
func startFollower(t *testing.T, space *tkplq.Space, dir string, primaries []string, hook func(typ byte, idx int) error) *testFollower {
	t.Helper()
	tf := &testFollower{t: t, dir: dir, runErr: make(chan error, 1)}
	cfg := FollowerConfig{
		Dir:       dir,
		Self:      "follower-1",
		Primaries: primaries,
		Retry:     retry.Policy{Base: 2 * time.Millisecond, Cap: 25 * time.Millisecond},
		// The stall watchdog must stay far above the heartbeat cadence but
		// low enough that a torn connection is noticed within the test.
		StallTimeout: 2 * time.Second,
		Logf:         t.Logf,
		hookFrame:    hook,
		Open: func(startSeq uint64, startOff int64) (*tkplq.System, *parts.Store, error) {
			store, table, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: dir, KeepSegments: 8})
			if err != nil {
				return nil, nil, err
			}
			sys, err := tkplq.NewSystem(space, table, tkplq.Options{})
			if err != nil {
				store.Close()
				return nil, nil, err
			}
			sys.SetPersister(store)
			tf.mu.Lock()
			tf.sys, tf.store = sys, store
			tf.mu.Unlock()
			return sys, store, nil
		},
	}
	fol, err := NewFollower(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tf.fol = fol
	ctx, cancel := context.WithCancel(context.Background())
	tf.cancel = cancel
	go func() { tf.runErr <- fol.Run(ctx) }()
	return tf
}

// waitConverged blocks until the follower's durable position equals the
// primary store's and its synced bit is set.
func waitConverged(t *testing.T, p *testPrimary, tf *testFollower) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-tf.runErr:
			t.Fatalf("follower run ended while waiting for convergence: %v", err)
		default:
		}
		pseq, poff := p.store.Log().Position()
		st := tf.fol.State()
		if st.Synced && st.WALSeq == pseq && st.WALOff == poff {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := tf.fol.State()
	pseq, poff := p.store.Log().Position()
	t.Fatalf("follower never converged: follower at (%d, %d) synced=%v, primary at (%d, %d)",
		st.WALSeq, st.WALOff, st.Synced, pseq, poff)
}

// assertBitIdentical is the convergence contract: positions equal, sealed
// partition files byte-equal, the WAL's committed prefix byte-equal, and the
// answer battery identical with == float comparison.
func assertBitIdentical(t *testing.T, label string, p *testPrimary, tf *testFollower, want []*tkplq.Response) {
	t.Helper()
	pseq, poff := p.store.Log().Position()
	fseq, foff := tf.partStore().Log().Position()
	if pseq != fseq || poff != foff {
		t.Fatalf("%s: position (%d, %d) != primary (%d, %d)", label, fseq, foff, pseq, poff)
	}
	pParts := listParts(t, p.dir)
	fParts := listParts(t, tf.dir)
	if len(pParts) != len(fParts) {
		t.Fatalf("%s: %d partition files != primary's %d (%v vs %v)", label, len(fParts), len(pParts), fParts, pParts)
	}
	for i, name := range pParts {
		if fParts[i] != name {
			t.Fatalf("%s: partition file %q != primary's %q", label, fParts[i], name)
		}
		a, err := os.ReadFile(filepath.Join(p.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(tf.dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s: partition %s differs byte-wise (%d vs %d bytes)", label, name, len(a), len(b))
		}
	}
	segName := fmt.Sprintf("wal-%08d.log", pseq)
	a, err := os.ReadFile(filepath.Join(p.dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(tf.dir, segName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(a)) < poff || int64(len(b)) < poff {
		t.Fatalf("%s: segment %s shorter than committed offset %d (%d / %d)", label, segName, poff, len(a), len(b))
	}
	if string(a[:poff]) != string(b[:poff]) {
		t.Fatalf("%s: WAL segment %s committed prefix differs", label, segName)
	}
	got := battery(t, tf.system())
	for i := range want {
		if got[i].Flow != want[i].Flow {
			t.Errorf("%s: battery %d flow %v != %v", label, i, got[i].Flow, want[i].Flow)
		}
		if len(got[i].Results) != len(want[i].Results) {
			t.Fatalf("%s: battery %d returned %d results, want %d", label, i, len(got[i].Results), len(want[i].Results))
		}
		for j := range want[i].Results {
			if got[i].Results[j] != want[i].Results[j] {
				t.Errorf("%s: battery %d rank %d: %+v != %+v", label, i, j, got[i].Results[j], want[i].Results[j])
			}
		}
	}
}

func listParts(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if _, _, ok := parts.ParsePartName(e.Name()); ok {
			out = append(out, e.Name())
		}
	}
	return out
}

// TestReplicationCleanBootstrap pins the baseline: an empty follower
// bootstraps, tails to the committed position, and is bit-identical.
func TestReplicationCleanBootstrap(t *testing.T) {
	p := newTestPrimary(t, 3, 7)
	want := battery(t, p.sys)
	tf := startFollower(t, p.b.Space, t.TempDir(), []string{p.addr}, nil)
	defer tf.stop()
	waitConverged(t, p, tf)
	assertBitIdentical(t, "clean bootstrap", p, tf, want)
	if got := tf.fol.State().FullResyncs; got != 0 {
		t.Errorf("clean bootstrap took %d full resyncs, want 0", got)
	}
}

// TestReplicationSmallWindowConverges: a source configured with a window
// below two follower ack cadences streams with MinWindowBytes instead, so a
// WAL tail longer than the floor reaches the follower in one session. With
// the window as configured, the source would pause before the follower's
// first ack was due and wait for an ack that never comes.
func TestReplicationSmallWindowConverges(t *testing.T) {
	p := newTestPrimary(t, 0, 0)
	nPLocs := p.b.Space.NumPLocations()
	for i := range 2000 { // 2 000 frames of six records each
		batch := make([]tkplq.Record, 6)
		for j := range batch {
			loc := i*6 + j
			batch[j] = tkplq.Record{OID: tkplq.ObjectID(200 + j), T: tkplq.Time(700 + i), Samples: tkplq.SampleSet{
				{Loc: tkplq.PLocID(loc % nPLocs), Prob: 0.5}, {Loc: tkplq.PLocID((loc + 1) % nPLocs), Prob: 0.3}, {Loc: tkplq.PLocID((loc + 2) % nPLocs), Prob: 0.2},
			}}
		}
		if err := p.sys.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, off := p.store.Log().Position(); off < MinWindowBytes {
		t.Fatalf("WAL tail of %d bytes does not exceed the %d-byte window floor", off, MinWindowBytes)
	}
	p.src = NewSource(SourceConfig{Store: p.store, HeartbeatEvery: 50 * time.Millisecond, WindowBytes: 64 << 10, Logf: t.Logf})
	srv := httptest.NewServer(replMux(p.src, nil))
	t.Cleanup(srv.Close)
	p.addr = strings.TrimPrefix(srv.URL, "http://")

	want := battery(t, p.sys)
	tf := startFollower(t, p.b.Space, t.TempDir(), []string{p.addr}, nil)
	defer tf.stop()
	waitConverged(t, p, tf)
	assertBitIdentical(t, "64 KiB window", p, tf, want)
	if got := tf.fol.State().Reconnects; got != 0 {
		t.Errorf("follower reconnected %d times, want 0", got)
	}
}

// TestReplicationBootstrapAboveSealOne: a directory an earlier build
// migrated from a flat snapshot bases its sealed set above 1. A follower
// bootstrapped from a primary whose only partition is part-00000002.tkp
// adopts that base and answers like its primary.
func TestReplicationBootstrapAboveSealOne(t *testing.T) {
	p := &testPrimary{t: t, dir: t.TempDir(), inj: &injector{}}
	b, seed := replTestData(t)
	p.b = b
	buf, err := parts.Encode(seed.SortedRecords())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(p.dir, "part-00000002.tkp"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	store, recovered, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: p.dir, KeepSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	p.store = store
	if p.sys, err = tkplq.NewSystem(b.Space, recovered, tkplq.Options{}); err != nil {
		t.Fatal(err)
	}
	p.sys.SetPersister(store)
	for _, batch := range replBatches(b.Space.NumPLocations())[:3] {
		if err := p.sys.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	p.src = NewSource(SourceConfig{Store: store, HeartbeatEvery: 50 * time.Millisecond, Logf: t.Logf})
	p.srv = httptest.NewServer(replMux(p.src, p.inj))
	t.Cleanup(p.srv.Close)
	p.addr = strings.TrimPrefix(p.srv.URL, "http://")

	want := battery(t, p.sys)
	tf := startFollower(t, b.Space, t.TempDir(), []string{p.addr}, nil)
	defer tf.stop()
	waitConverged(t, p, tf)
	assertBitIdentical(t, "bootstrap above seal 1", p, tf, want)
	if got := listParts(t, tf.dir); len(got) != 1 || got[0] != "part-00000002.tkp" {
		t.Fatalf("follower holds partitions %v, want only part-00000002.tkp", got)
	}
}

// TestFaultSweepPrimaryWrites kills the stream at every write position of a
// clean session — clean break on even positions, torn half-frame on odd —
// and requires the reconnect to converge bit-identically every time.
func TestFaultSweepPrimaryWrites(t *testing.T) {
	p := newTestPrimary(t, 3, 7)
	want := battery(t, p.sys)

	// Count a clean run's writes to bound the sweep.
	p.inj.arm(-1, false)
	tf := startFollower(t, p.b.Space, t.TempDir(), []string{p.addr}, nil)
	waitConverged(t, p, tf)
	total := p.inj.observedWrites()
	tf.stop()
	if total < 10 {
		t.Fatalf("clean run produced only %d stream writes — dataset too small to sweep", total)
	}
	t.Logf("sweeping %d primary write positions", total)

	for k := 0; k < total; k++ {
		p.inj.arm(k, k%2 == 1)
		tf := startFollower(t, p.b.Space, t.TempDir(), []string{p.addr}, nil)
		waitConverged(t, p, tf)
		if !p.inj.didFire() {
			// Heartbeat-position writes may land after convergence; the run
			// degenerates to a clean one, which is fine at the sweep's tail.
			t.Logf("write fault at %d never fired (converged first)", k)
		}
		assertBitIdentical(t, fmt.Sprintf("write fault at %d", k), p, tf, want)
		tf.stop()
	}
}

// TestFaultSweepFollowerCrash crashes the follower at every received frame
// of a clean run — mid-bootstrap, mid-file, mid-tail — then rejoins with a
// brand-new Follower over the same directory, which must converge without a
// byte of divergence.
func TestFaultSweepFollowerCrash(t *testing.T) {
	p := newTestPrimary(t, 3, 7)
	want := battery(t, p.sys)

	// Count a clean run's frames to bound the sweep.
	frames := 0
	var mu sync.Mutex
	tf := startFollower(t, p.b.Space, t.TempDir(), []string{p.addr}, func(typ byte, idx int) error {
		mu.Lock()
		frames++
		mu.Unlock()
		return nil
	})
	waitConverged(t, p, tf)
	mu.Lock()
	total := frames
	mu.Unlock()
	tf.stop()
	if total < 10 {
		t.Fatalf("clean run delivered only %d frames — dataset too small to sweep", total)
	}
	t.Logf("sweeping %d follower crash positions", total)

	for k := 0; k < total; k++ {
		dir := t.TempDir()
		crashed := make(chan struct{})
		var once sync.Once
		tf1 := startFollower(t, p.b.Space, dir, []string{p.addr}, func(typ byte, idx int) error {
			if idx == k {
				once.Do(func() { close(crashed) })
				return errors.New("injected follower crash")
			}
			return nil
		})
		select {
		case <-crashed:
		case <-time.After(10 * time.Second):
			t.Fatalf("crash at frame %d never triggered", k)
		}
		// "Kill" the process: stop the run and drop all in-memory state. The
		// store (if the bootstrap got that far) is closed so the directory's
		// lock frees; everything else the rejoin must rebuild from disk.
		tf1.stop()

		tf2 := startFollower(t, p.b.Space, dir, []string{p.addr}, nil)
		waitConverged(t, p, tf2)
		assertBitIdentical(t, fmt.Sprintf("crash at frame %d", k), p, tf2, want)
		tf2.stop()
	}
}

// TestPrimaryKillAndRecoverMidStream kills the serving primary process with
// replicated-but-unacked work in flight, recovers the same store directory
// behind a different address, and requires the follower to rotate to it,
// resume over a live handshake (no re-bootstrap) and converge — including
// ingest that happens only after the recovery.
func TestPrimaryKillAndRecoverMidStream(t *testing.T) {
	p := newTestPrimary(t, 2, 4)

	// Reserve the recovery address up front so the follower can rotate to it;
	// connections queue in the listener backlog until the server starts.
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := lnB.Addr().String()

	tf := startFollower(t, p.b.Space, t.TempDir(), []string{p.addr, addrB}, nil)
	defer tf.stop()
	waitConverged(t, p, tf)

	// More committed work, some of it sealed, right before the kill — the
	// follower may or may not have applied it when the primary dies.
	batches := replBatches(p.b.Space.NumPLocations())
	if err := p.sys.Snapshot(); err != nil {
		t.Fatal(err)
	}

	// kill -9: connections die, nothing flushes, the store is simply closed
	// (its committed WAL is the only truth, as after a real crash).
	p.srv.CloseClientConnections()
	p.srv.Close()
	if err := p.store.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover the same directory behind addrB.
	store2, recovered, err := tkplq.OpenPartitioned(tkplq.PartitionedOptions{Dir: p.dir, KeepSegments: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	sys2, err := tkplq.NewSystem(p.b.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys2.SetPersister(store2)
	src2 := NewSource(SourceConfig{Store: store2, HeartbeatEvery: 50 * time.Millisecond, Logf: t.Logf})
	srvB := &http.Server{Handler: replMux(src2, nil)}
	go srvB.Serve(lnB)
	t.Cleanup(func() { srvB.Close() })

	// The recovered primary keeps ingesting and sealing.
	for i := 8; i < len(batches); i++ {
		if err := sys2.Ingest(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys2.Snapshot(); err != nil {
		t.Fatal(err)
	}

	p2 := &testPrimary{t: t, dir: p.dir, b: p.b, sys: sys2, store: store2, src: src2, addr: addrB}
	waitConverged(t, p2, tf)
	want := battery(t, sys2)
	assertBitIdentical(t, "after primary recovery", p2, tf, want)
	if st := tf.fol.State(); st.FullResyncs != 0 {
		t.Errorf("follower full-resynced %d times; a recovered primary must resume the live stream", st.FullResyncs)
	}
	if st := tf.fol.State(); st.Primary != addrB {
		t.Errorf("follower upstream = %s, want the recovered primary %s", st.Primary, addrB)
	}
}
