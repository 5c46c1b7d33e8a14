package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/parts"
	"tkplq/internal/retry"
)

// HTTP-level tests of the distributed deployment: a router over 1/2/4 real
// shard servers must answer every query kind byte-identically (results-wise)
// to a standalone server over the same dataset, route ingest to the owning
// shards, keep the bit-identical contract across a routed ingest and a shard
// restart from its WAL, and degrade with the structured 503 envelope naming
// an unreachable shard.

// swapHandler is a shard slot whose handler can be replaced, simulating a
// shard process restart behind a stable address.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// testCluster is one router + n shard servers over real listeners.
type testCluster struct {
	topo      *cluster.Topology
	space     *tkplq.Space
	shardSys  []*tkplq.System
	shardTS   []*httptest.Server
	slots     []*swapHandler
	routerSrv *Server
	routerTS  *httptest.Server
}

func cloneTable(tb *tkplq.Table) *tkplq.Table {
	out := tkplq.NewTable()
	for _, rec := range tb.SortedRecords() {
		out.Append(rec)
	}
	return out
}

// startCluster splits tb across n shard servers by a hash topology and
// fronts them with a router. Each shard gets its own copy of its partition,
// so ingest through the cluster never touches the caller's table.
func startCluster(t *testing.T, space *tkplq.Space, tb *tkplq.Table, n int) *testCluster {
	t.Helper()
	c := &testCluster{space: space}
	c.slots = make([]*swapHandler, n)
	c.shardTS = make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := range c.slots {
		c.slots[i] = &swapHandler{}
		c.shardTS[i] = httptest.NewServer(c.slots[i])
		t.Cleanup(c.shardTS[i].Close)
		addrs[i] = strings.TrimPrefix(c.shardTS[i].URL, "http://")
	}
	topo, err := cluster.New(addrs)
	if err != nil {
		t.Fatal(err)
	}
	c.topo = topo

	c.shardSys = make([]*tkplq.System, n)
	for i := 0; i < n; i++ {
		part := tkplq.NewTable()
		for _, rec := range tb.SortedRecords() {
			if topo.Owns(rec.OID, i) {
				part.Append(rec)
			}
		}
		sys, err := tkplq.NewSystem(space, part, tkplq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.shardSys[i] = sys
		srv, err := New(Config{System: sys, Role: RoleShard, Topology: topo, ShardIndex: i, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		c.slots[i].set(srv.Handler())
	}

	routerSys, err := tkplq.NewSystem(space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.routerSrv, err = New(Config{
		System: routerSys, Role: RoleRouter, Topology: topo,
		ShardTimeout: 5 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.routerTS = httptest.NewServer(c.routerSrv.Handler())
	t.Cleanup(c.routerTS.Close)
	return c
}

// resultsOf extracts the raw "results" JSON of a response body — the part of
// the answer the determinism contract covers (stats and elapsed_ms
// legitimately differ between deployments).
func resultsOf(t *testing.T, body []byte) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding response: %v (%s)", err, body)
	}
	res, ok := m["results"]
	if !ok {
		t.Fatalf("response has no results: %s", body)
	}
	return string(res)
}

// clusterQueryCases covers every kind, all three algorithms, explicit and
// te == 0 (end of data, router-resolved via /v2/span) windows.
func clusterQueryCases() []map[string]any {
	return []map[string]any{
		{"kind": "topk", "algorithm": "bf", "k": 5},
		{"kind": "topk", "algorithm": "naive", "k": 3, "te": 900},
		{"kind": "topk", "algorithm": "nl", "k": 8, "ts": 100, "te": 1500},
		{"kind": "density", "k": 5, "te": 1200},
		{"kind": "flow", "slocs": []int{3}, "te": 1800},
		{"kind": "presence", "slocs": []int{2}, "oid": 5, "te": 1800},
	}
}

// TestClusterBitIdenticalToStandalone replays the same queries through a
// standalone server and 1-, 2- and 4-shard clusters over the same dataset:
// the ranked results (locations, order and float flows) must be identical
// byte for byte, for singles, an open-ended window and shared-work batches.
func TestClusterBitIdenticalToStandalone(t *testing.T) {
	sys := newSynSystem(t)
	_, standalone := newTestServer(t, sys, Config{})
	cases := clusterQueryCases()

	want := make([]string, len(cases))
	for i, q := range cases {
		resp, body := postJSON(t, standalone.Client(), standalone.URL+"/v2/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("standalone case %d = %d: %s", i, resp.StatusCode, body)
		}
		want[i] = resultsOf(t, body)
	}
	// A body with no window: te defaults to the end of the data, which a
	// router has to resolve cluster-wide.
	openEnded := map[string]any{"kind": "topk", "algorithm": "bf", "k": 5}
	_, openBody := postJSON(t, standalone.Client(), standalone.URL+"/v2/query", openEnded)
	wantOpen := resultsOf(t, openBody)

	for _, shards := range []int{1, 2, 4} {
		c := startCluster(t, synB.Space, synTable, shards)
		client := c.routerTS.Client()
		for i, q := range cases {
			resp, body := postJSON(t, client, c.routerTS.URL+"/v2/query", q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shards=%d case %d = %d: %s", shards, i, resp.StatusCode, body)
			}
			if got := resultsOf(t, body); got != want[i] {
				t.Errorf("shards=%d case %d diverged from standalone:\n got %s\nwant %s", shards, i, got, want[i])
			}
		}

		resp, body := postJSON(t, client, c.routerTS.URL+"/v2/query", openEnded)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d open-ended = %d: %s", shards, resp.StatusCode, body)
		}
		if got := resultsOf(t, body); got != wantOpen {
			t.Errorf("shards=%d open-ended query diverged:\n got %s\nwant %s", shards, got, wantOpen)
		}

		// Shared-work batch: one fan-out per window group, members finished
		// from the union columns — still bit-identical per member.
		resp, body = postJSON(t, client, c.routerTS.URL+"/v2/query", cases)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shards=%d batch = %d: %s", shards, resp.StatusCode, body)
		}
		var batch []map[string]json.RawMessage
		if err := json.Unmarshal(body, &batch); err != nil {
			t.Fatal(err)
		}
		if len(batch) != len(cases) {
			t.Fatalf("shards=%d batch answered %d of %d", shards, len(batch), len(cases))
		}
		for i := range batch {
			if got := string(batch[i]["results"]); got != want[i] {
				t.Errorf("shards=%d batch member %d diverged:\n got %s\nwant %s", shards, i, got, want[i])
			}
		}
	}
}

// TestClusterStatsAndHealth checks the role surfaces: healthz reports the
// role, shard stats carry the shard section, router stats aggregate every
// shard (healthy, with embedded stats) plus the fan-out counters.
func TestClusterStatsAndHealth(t *testing.T) {
	c := startCluster(t, synB.Space, newSynSystem(t).Table(), 2)
	client := c.routerTS.Client()

	// Drive one fan-out so the counters move.
	resp, body := postJSON(t, client, c.routerTS.URL+"/v2/query", map[string]any{"kind": "topk", "k": 3, "te": 900})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d: %s", resp.StatusCode, body)
	}

	hr, err := client.Get(c.routerTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct{ Role string }
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Role != RoleRouter {
		t.Errorf("router healthz role = %q", health.Role)
	}

	sr, err := client.Get(c.routerTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if stats.Role != RoleRouter || stats.Cluster == nil {
		t.Fatalf("router stats: role=%q cluster=%v", stats.Role, stats.Cluster != nil)
	}
	if stats.Cluster.FanOuts == 0 {
		t.Error("router stats report zero fan-outs after a query")
	}
	if len(stats.Cluster.Shards) != 2 {
		t.Fatalf("router stats list %d shards, want 2", len(stats.Cluster.Shards))
	}
	for _, sh := range stats.Cluster.Shards {
		if !sh.Healthy || len(sh.Stats) == 0 {
			t.Errorf("shard %d: healthy=%v stats=%d bytes", sh.Shard, sh.Healthy, len(sh.Stats))
		}
	}

	// A shard's own stats carry its place in the topology.
	shr, err := client.Get(c.shardTS[1].URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var shardStats StatsResponse
	if err := json.NewDecoder(shr.Body).Decode(&shardStats); err != nil {
		t.Fatal(err)
	}
	shr.Body.Close()
	if shardStats.Role != RoleShard || shardStats.Shard == nil || shardStats.Shard.Index != 1 || shardStats.Shard.Shards != 2 {
		t.Fatalf("shard stats: %+v", shardStats.Shard)
	}

	// Router refuses the per-shard surfaces loudly.
	for _, ep := range []struct{ method, path string }{
		{http.MethodPost, "/v1/snapshot"},
		{http.MethodPost, "/v1/compact"},
		{http.MethodGet, "/v2/subscribe?window=900&k=3"},
		{http.MethodPost, "/v2/partial"},
		{http.MethodGet, "/v2/span"},
	} {
		req, _ := http.NewRequest(ep.method, c.routerTS.URL+ep.path, strings.NewReader("{}"))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s on router = %d, want 501", ep.path, resp.StatusCode)
		}
	}
}

// oidOwnedBy finds a fresh object id owned by the given shard.
func oidOwnedBy(topo *cluster.Topology, shard int, from int64) int64 {
	for oid := from; ; oid++ {
		if topo.ShardOf(tkplq.ObjectID(oid)) == shard {
			return oid
		}
	}
}

// TestClusterIngestRoutingAndDeterminism ingests one batch through the
// router (split across both shards) and the same batch into a standalone
// server over the same dataset: the post-ingest answers must stay
// bit-identical, and the router envelope must account for every sub-batch.
// A direct foreign-object ingest at a shard must be refused.
func TestClusterIngestRoutingAndDeterminism(t *testing.T) {
	base := newSynSystem(t).Table()
	standaloneSys, err := tkplq.NewSystem(synB.Space, cloneTable(base), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, standalone := newTestServer(t, standaloneSys, Config{})
	c := startCluster(t, synB.Space, base, 2)
	client := c.routerTS.Client()

	oid0 := oidOwnedBy(c.topo, 0, 9000)
	oid1 := oidOwnedBy(c.topo, 1, 9000)
	batch := map[string]any{"records": []map[string]any{
		{"oid": oid0, "t": 2000, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
		{"oid": oid1, "t": 2001, "samples": []map[string]any{{"ploc": 1, "prob": 0.5}, {"ploc": 2, "prob": 0.5}}},
		{"oid": oid0, "t": 2003, "samples": []map[string]any{{"ploc": 3, "prob": 1.0}}},
	}}

	resp, body := postJSON(t, client, c.routerTS.URL+"/v1/ingest", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed ingest = %d: %s", resp.StatusCode, body)
	}
	var renv RouterIngestResponse
	if err := json.Unmarshal(body, &renv); err != nil {
		t.Fatal(err)
	}
	if renv.Ingested != 3 || len(renv.Shards) != 2 {
		t.Fatalf("routed ingest envelope: %s", body)
	}
	for _, sh := range renv.Shards {
		if sh.Error != "" || sh.Ingested != sh.Sent {
			t.Fatalf("shard outcome not clean: %+v", sh)
		}
	}

	if resp, body := postJSON(t, standalone.Client(), standalone.URL+"/v1/ingest", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("standalone ingest = %d: %s", resp.StatusCode, body)
	}

	// Post-ingest, the cluster must still answer exactly like standalone —
	// including a te == 0 window now ending at the new records.
	for i, q := range clusterQueryCases() {
		_, wantBody := postJSON(t, standalone.Client(), standalone.URL+"/v2/query", q)
		resp, gotBody := postJSON(t, client, c.routerTS.URL+"/v2/query", q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d = %d: %s", i, resp.StatusCode, gotBody)
		}
		if got, want := resultsOf(t, gotBody), resultsOf(t, wantBody); got != want {
			t.Errorf("post-ingest case %d diverged:\n got %s\nwant %s", i, got, want)
		}
	}

	// Ownership enforcement: shard 0 must refuse shard 1's object.
	resp, body = postJSON(t, client, c.shardTS[0].URL+"/v1/ingest", map[string]any{
		"records": []map[string]any{
			{"oid": oid1, "t": 3000, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign ingest at shard = %d: %s", resp.StatusCode, body)
	}
	var rej IngestErrorResponse
	if err := json.Unmarshal(body, &rej); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rej.Error, "owned by shard") || rej.OID != oid1 {
		t.Fatalf("ownership rejection envelope: %s", body)
	}

	// A shard-side rejection through the router maps the index back to the
	// caller's batch. Record 1 (shard 1's sub-batch) carries a negative
	// timestamp — it passes the router's structural decode but fails the
	// shard's ingest validation; record 0 (shard 0) is fine — so the router
	// reports a partial failure, naming position 1 of the original batch.
	resp, body = postJSON(t, client, c.routerTS.URL+"/v1/ingest", map[string]any{
		"records": []map[string]any{
			{"oid": oid0, "t": 2005, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
			{"oid": oid1, "t": -7, "samples": []map[string]any{{"ploc": 1, "prob": 1.0}}},
		},
	})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("partial-failure ingest = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &renv); err != nil {
		t.Fatal(err)
	}
	if renv.Error == "" || renv.Ingested != 1 {
		t.Fatalf("partial-failure envelope: %s", body)
	}
	found := false
	for _, sh := range renv.Shards {
		if sh.Error != "" {
			found = true
			if sh.Index != 1 {
				t.Errorf("rejection index %d, want original position 1: %s", sh.Index, body)
			}
		}
	}
	if !found {
		t.Fatalf("no failed shard in partial-failure envelope: %s", body)
	}
}

// TestClusterShardRestartFromWAL runs one shard durably, ingests through the
// router, "restarts" the shard by recovering a fresh system from its WAL
// behind the same address, and checks the cluster answers bit-identically to
// before the restart.
func TestClusterShardRestartFromWAL(t *testing.T) {
	base := newSynSystem(t).Table()
	c := startCluster(t, synB.Space, base, 2)
	client := c.routerTS.Client()

	// Rebuild shard 0 as a durable shard: its partition ingested into a
	// fresh store and sealed, swapped in behind the same address.
	dir := t.TempDir()
	store, recovered, err := parts.Open(parts.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Len() != 0 {
		t.Fatal("fresh WAL dir recovered records")
	}
	var part []tkplq.Record
	for _, rec := range base.SortedRecords() {
		if c.topo.Owns(rec.OID, 0) {
			part = append(part, rec)
		}
	}
	durSys, err := tkplq.NewSystem(synB.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durSys.SetPersister(store)
	if err := durSys.Ingest(part); err != nil {
		t.Fatal(err)
	}
	if err := durSys.Snapshot(); err != nil {
		t.Fatal(err)
	}
	durSrv, err := New(Config{System: durSys, Role: RoleShard, Topology: c.topo, ShardIndex: 0, Store: store, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c.slots[0].set(durSrv.Handler())

	// Ingest lands in shard 0's WAL through the router.
	baseLen := len(part)
	oid0 := oidOwnedBy(c.topo, 0, 9500)
	resp, body := postJSON(t, client, c.routerTS.URL+"/v1/ingest", map[string]any{
		"records": []map[string]any{
			{"oid": oid0, "t": 2100, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
			{"oid": oid0, "t": 2103, "samples": []map[string]any{{"ploc": 1, "prob": 1.0}}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}

	q := map[string]any{"kind": "topk", "algorithm": "bf", "k": 6}
	_, beforeBody := postJSON(t, client, c.routerTS.URL+"/v2/query", q)
	before := resultsOf(t, beforeBody)

	// "kill -9": drop the in-memory system, recover a new one from disk.
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store2, recovered2, err := parts.Open(parts.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if want := baseLen + 2; recovered2.Len() != want {
		t.Fatalf("recovered %d records, want %d (partition + routed ingest)", recovered2.Len(), want)
	}
	recSys, err := tkplq.NewSystem(synB.Space, recovered2, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recSys.SetPersister(store2)
	recSrv, err := New(Config{System: recSys, Role: RoleShard, Topology: c.topo, ShardIndex: 0, Store: store2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	c.slots[0].set(recSrv.Handler())

	resp, afterBody := postJSON(t, client, c.routerTS.URL+"/v2/query", q)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart query = %d: %s", resp.StatusCode, afterBody)
	}
	if after := resultsOf(t, afterBody); after != before {
		t.Errorf("shard WAL restart changed the answer:\n got %s\nwant %s", after, before)
	}
}

// TestClusterDegradedShard points the topology at one live shard and one
// dead address: queries must fail with the structured 503 naming the dead
// shard, ingest targeting it must degrade the same way, and router stats
// must mark it unhealthy while staying 200 themselves.
func TestClusterDegradedShard(t *testing.T) {
	// A listener that is opened and immediately closed: a guaranteed-dead
	// address that no other test server can claim meanwhile.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	liveTS := httptest.NewServer(nil) // handler set below
	t.Cleanup(liveTS.Close)
	liveAddr := strings.TrimPrefix(liveTS.URL, "http://")
	topo, err := cluster.New([]string{liveAddr, deadAddr})
	if err != nil {
		t.Fatal(err)
	}

	base := newSynSystem(t).Table()
	part := tkplq.NewTable()
	for _, rec := range base.SortedRecords() {
		if topo.Owns(rec.OID, 0) {
			part.Append(rec)
		}
	}
	liveSys, err := tkplq.NewSystem(synB.Space, part, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	liveSrv, err := New(Config{System: liveSys, Role: RoleShard, Topology: topo, ShardIndex: 0, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	liveTS.Config.Handler = liveSrv.Handler()

	routerSys, err := tkplq.NewSystem(synB.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv, err := New(Config{
		System: routerSys, Role: RoleRouter, Topology: topo,
		ShardTimeout: 2 * time.Second, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	routerTS := httptest.NewServer(routerSrv.Handler())
	t.Cleanup(routerTS.Close)
	client := routerTS.Client()

	assertDegraded := func(body []byte, status int) {
		t.Helper()
		if status != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want 503: %s", status, body)
		}
		var env struct {
			Error    string       `json:"error"`
			Degraded DegradedJSON `json:"degraded"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("degraded envelope: %v (%s)", err, body)
		}
		if env.Degraded.Shard != 1 || env.Degraded.Addr != deadAddr || env.Degraded.Cause == "" {
			t.Fatalf("degraded envelope does not name the dead shard: %s", body)
		}
		if !strings.Contains(env.Error, fmt.Sprintf("shard 1 (%s) unavailable", deadAddr)) {
			t.Fatalf("degraded error text: %s", env.Error)
		}
	}

	// Fan-out query: the dead shard kills it.
	resp, body := postJSON(t, client, routerTS.URL+"/v2/query", map[string]any{"kind": "topk", "k": 3, "te": 900})
	assertDegraded(body, resp.StatusCode)

	// te == 0 needs every shard's span: degraded too.
	resp, body = postJSON(t, client, routerTS.URL+"/v2/query", map[string]any{"kind": "topk", "k": 3})
	assertDegraded(body, resp.StatusCode)

	// Ingest owned entirely by the dead shard: nothing applied, 503.
	deadOID := oidOwnedBy(topo, 1, 9000)
	resp, body = postJSON(t, client, routerTS.URL+"/v1/ingest", map[string]any{
		"records": []map[string]any{
			{"oid": deadOID, "t": 5000, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
		},
	})
	assertDegraded(body, resp.StatusCode)

	// Presence for an object on the live shard still works: single-shard
	// routing does not touch the dead member.
	liveOID := oidOwnedBy(topo, 0, 1)
	resp, body = postJSON(t, client, routerTS.URL+"/v2/query",
		map[string]any{"kind": "presence", "slocs": []int{0}, "oid": liveOID, "te": 1800})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live-shard presence = %d: %s", resp.StatusCode, body)
	}

	// Stats stay 200 and mark the dead shard unhealthy.
	sr, err := client.Get(routerTS.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	sr.Body.Close()
	if sr.StatusCode != http.StatusOK || stats.Cluster == nil {
		t.Fatalf("router stats with dead shard: %d", sr.StatusCode)
	}
	if stats.Cluster.ShardErrors == 0 {
		t.Error("shard_errors did not move")
	}
	var dead *ShardStatJSON
	for i := range stats.Cluster.Shards {
		if stats.Cluster.Shards[i].Shard == 1 {
			dead = &stats.Cluster.Shards[i]
		}
	}
	if dead == nil || dead.Healthy || dead.Error == "" {
		t.Fatalf("dead shard not reported unhealthy: %+v", dead)
	}
}

// BenchmarkRouterFanIn measures the full distributed query path — router
// HTTP in, per-shard /v2/partial legs, canonical merge, ranking — over 1, 2
// and 4 in-process shards on the synthetic dataset.
func BenchmarkRouterFanIn(b *testing.B) {
	bld, table := benchDataset(b)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := startBenchCluster(b, bld, table, shards)
			client := c.routerTS.Client()
			payload := `{"kind":"topk","algorithm":"bf","k":5,"te":1800,"no_coalesce":true}`
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(c.routerTS.URL+"/v2/query", "application/json", strings.NewReader(payload))
				if err != nil {
					b.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("query = %d", resp.StatusCode)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
			}
		})
	}
}

// benchDataset builds the synthetic dataset for benchmarks without the
// testing.T-coupled helpers.
func benchDataset(b *testing.B) (*tkplq.Building, *tkplq.Table) {
	b.Helper()
	bld, err := tkplq.GenerateBuilding(tkplq.DefaultBuildingConfig())
	if err != nil {
		b.Fatal(err)
	}
	mcfg := tkplq.DefaultMovementConfig()
	mcfg.Objects = 24
	mcfg.Duration = 1800
	mcfg.MinDwell, mcfg.MaxDwell = 60, 240
	mcfg.MinLifespan, mcfg.MaxLifespan = 900, 1800
	trajs, err := tkplq.SimulateMovement(bld, mcfg)
	if err != nil {
		b.Fatal(err)
	}
	table, err := tkplq.GenerateIUPT(bld, trajs, tkplq.DefaultPositioningConfig())
	if err != nil {
		b.Fatal(err)
	}
	return bld, table
}

// startBenchCluster is startCluster for benchmarks.
func startBenchCluster(b *testing.B, bld *tkplq.Building, tb *tkplq.Table, n int) *testCluster {
	b.Helper()
	c := &testCluster{space: bld.Space}
	c.slots = make([]*swapHandler, n)
	c.shardTS = make([]*httptest.Server, n)
	addrs := make([]string, n)
	for i := range c.slots {
		c.slots[i] = &swapHandler{}
		c.shardTS[i] = httptest.NewServer(c.slots[i])
		b.Cleanup(c.shardTS[i].Close)
		addrs[i] = strings.TrimPrefix(c.shardTS[i].URL, "http://")
	}
	topo, err := cluster.New(addrs)
	if err != nil {
		b.Fatal(err)
	}
	c.topo = topo
	for i := 0; i < n; i++ {
		part := tkplq.NewTable()
		for _, rec := range tb.SortedRecords() {
			if topo.Owns(rec.OID, i) {
				part.Append(rec)
			}
		}
		sys, err := tkplq.NewSystem(bld.Space, part, tkplq.Options{})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := New(Config{System: sys, Role: RoleShard, Topology: topo, ShardIndex: i, Logf: func(string, ...any) {}})
		if err != nil {
			b.Fatal(err)
		}
		c.slots[i].set(srv.Handler())
	}
	routerSys, err := tkplq.NewSystem(bld.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		b.Fatal(err)
	}
	routerSrv, err := New(Config{
		System: routerSys, Role: RoleRouter, Topology: topo,
		ShardTimeout: 10 * time.Second, Logf: func(string, ...any) {},
	})
	if err != nil {
		b.Fatal(err)
	}
	c.routerTS = httptest.NewServer(routerSrv.Handler())
	b.Cleanup(c.routerTS.Close)
	return c
}

// TestRouterRefusesStaleReplica: once the router has returned 200 for an
// ingest, no read may be answered from a member that has not applied it. One
// shard, two members over the same pre-ingest data; member 1 never receives
// the routed ingest (a follower that stays a frame behind) yet keeps telling
// /readyz it is ready. Both read legs of a te-defaulted query are exposed —
// a stale /v2/span pins the window at the old end of data, a stale
// /v2/partial misses the new records — so every query must still equal the
// standalone reference, and the router must name the laggard in /v1/stats.
func TestRouterRefusesStaleReplica(t *testing.T) {
	base := newSynSystem(t).Table()
	standaloneSys, err := tkplq.NewSystem(synB.Space, cloneTable(base), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, standalone := newTestServer(t, standaloneSys, Config{})

	const members = 2
	slots := make([]*swapHandler, members)
	addrs := make([]string, members)
	for i := range slots {
		slots[i] = &swapHandler{}
		ts := httptest.NewServer(slots[i])
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	topo, err := cluster.NewReplicated([][]string{addrs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range slots {
		sys, err := tkplq.NewSystem(synB.Space, cloneTable(base), tkplq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{System: sys, Role: RoleShard, Topology: topo, ShardIndex: 0, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		slots[i].set(srv.Handler())
	}
	routerSys, err := tkplq.NewSystem(synB.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv, routerTS := newTestServer(t, routerSys, Config{
		Role: RoleRouter, Topology: topo, ShardTimeout: 5 * time.Second,
		Retry:          retry.Policy{Base: time.Millisecond, Cap: 2 * time.Millisecond, Attempts: 3},
		HealthInterval: 10 * time.Millisecond,
	})
	t.Cleanup(routerSrv.router.stop)
	client := routerTS.Client()

	// member1 polls the router's view of member 1 until ok accepts it.
	member1 := func(what string, ok func(MemberHealthJSON) bool) MemberHealthJSON {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			sr, err := client.Get(routerTS.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			var stats StatsResponse
			err = json.NewDecoder(sr.Body).Decode(&stats)
			sr.Body.Close()
			if err != nil || stats.Cluster == nil || len(stats.Cluster.Shards) != 1 || len(stats.Cluster.Shards[0].Members) != members {
				t.Fatalf("router stats: %v %+v", err, stats.Cluster)
			}
			if m := stats.Cluster.Shards[0].Members[1]; ok(m) {
				return m
			} else if time.Now().After(deadline) {
				t.Fatalf("member 1 never %s: %+v", what, m)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Reads only balance onto member 1 once a probe has found it ready.
	member1("became ready", func(m MemberHealthJSON) bool { return m.Ready })

	query := map[string]any{"kind": "topk", "algorithm": "bf", "k": 5} // te == 0: end of data
	_, before := postJSON(t, standalone.Client(), standalone.URL+"/v2/query", query)
	batch := map[string]any{"records": []map[string]any{
		{"oid": 9001, "t": 2000, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
		{"oid": 9002, "t": 2001, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
		{"oid": 9003, "t": 2002, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
	}}
	for _, url := range []string{routerTS.URL, standalone.URL} {
		if resp, body := postJSON(t, client, url+"/v1/ingest", batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest at %s = %d: %s", url, resp.StatusCode, body)
		}
	}
	_, wantBody := postJSON(t, standalone.Client(), standalone.URL+"/v2/query", query)
	want := resultsOf(t, wantBody)
	if want == resultsOf(t, before) {
		t.Fatal("the ingest does not change the reference answer; the test would prove nothing")
	}

	// Round-robin would hand member 1 a leg of every one of these.
	for i := 0; i < 2*members; i++ {
		resp, body := postJSON(t, client, routerTS.URL+"/v2/query", query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d after routed ingest = %d: %s", i, resp.StatusCode, body)
		}
		if got := resultsOf(t, body); got != want {
			t.Fatalf("query %d after routed ingest diverged from standalone (served by a stale member):\n got %s\nwant %s", i, got, want)
		}
	}
	m := member1("was marked stale", func(m MemberHealthJSON) bool { return !m.Ready && strings.Contains(m.Cause, "stale replica") })
	acked := fmt.Sprint(base.Len() + 3)
	if !strings.Contains(m.Cause, fmt.Sprint(base.Len())+" records") || !strings.Contains(m.Cause, acked) {
		t.Errorf("stale cause %q does not name both record counts (%d, %s)", m.Cause, base.Len(), acked)
	}
}
