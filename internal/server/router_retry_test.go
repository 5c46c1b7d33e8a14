package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/retry"
)

// countingMember fronts a real shard server, counting requests per path and
// optionally overriding a path's response with a fixed error status — a
// replica-set member that is up but failing.
type countingMember struct {
	inner http.Handler
	mu    sync.Mutex
	fail  map[string]int
	hits  map[string]int
}

func newCountingMember(inner http.Handler) *countingMember {
	return &countingMember{inner: inner, fail: map[string]int{}, hits: map[string]int{}}
}

func (m *countingMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	m.hits[r.URL.Path]++
	code := m.fail[r.URL.Path]
	m.mu.Unlock()
	if code != 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		w.Write([]byte(`{"error":"injected failure"}`))
		return
	}
	m.inner.ServeHTTP(w, r)
}

func (m *countingMember) set(path string, code int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fail[path] = code
}

func (m *countingMember) count(path string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits[path]
}

func (m *countingMember) reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fail = map[string]int{}
	m.hits = map[string]int{}
}

// TestRouterRetryDiscipline pins the router's retry contract over a replica
// set: idempotent reads retry onto the next replica when a member fails with
// a transport or 5xx error, a 4xx is the shard's authoritative answer and is
// never retried, and ingest — not idempotent — is attempted exactly once, on
// the primary only, no matter how it fails.
func TestRouterRetryDiscipline(t *testing.T) {
	sys := newSynSystem(t)
	base := sys.Table()

	// One shard, two members over the same data — member 0 is the primary.
	members := make([]*countingMember, 2)
	addrs := make([]string, 2)
	servers := make([]*httptest.Server, 2)
	for i := range members {
		members[i] = newCountingMember(nil)
		servers[i] = httptest.NewServer(members[i])
		t.Cleanup(servers[i].Close)
		addrs[i] = strings.TrimPrefix(servers[i].URL, "http://")
	}
	topo, err := cluster.NewReplicated([][]string{addrs})
	if err != nil {
		t.Fatal(err)
	}
	for i := range members {
		shardSys, err := tkplq.NewSystem(synB.Space, cloneTable(base), tkplq.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{System: shardSys, Role: RoleShard, Topology: topo, ShardIndex: 0, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		members[i].inner = srv.Handler()
	}

	routerSys, err := tkplq.NewSystem(synB.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, routerTS := newTestServer(t, routerSys, Config{
		Role: RoleRouter, Topology: topo, ShardTimeout: 5 * time.Second,
		Retry:          retry.Policy{Base: time.Millisecond, Cap: 2 * time.Millisecond, Attempts: 3},
		HealthInterval: -1, // no probe loop: the request path alone must fail over
	})
	client := routerTS.Client()
	query := map[string]any{"kind": "topk", "algorithm": "bf", "k": 3}

	// Baseline: a healthy read is served by the primary alone.
	resp, body := postJSON(t, client, routerTS.URL+"/v2/query", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline query = %d: %s", resp.StatusCode, body)
	}
	if n := members[1].count("/v2/partial"); n != 0 {
		t.Fatalf("healthy read reached the follower %d times", n)
	}

	// A 5xx read leg retries onto the next replica and still succeeds.
	members[0].reset()
	members[1].reset()
	members[0].set("/v2/partial", http.StatusInternalServerError)
	resp, body = postJSON(t, client, routerTS.URL+"/v2/query", query)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query with failing primary = %d: %s", resp.StatusCode, body)
	}
	if n := members[0].count("/v2/partial"); n == 0 {
		t.Error("primary was never attempted")
	}
	if n := members[1].count("/v2/partial"); n != 1 {
		t.Errorf("follower served %d partials, want 1", n)
	}

	// A 4xx is authoritative: no retry, the error surfaces.
	members[0].reset()
	members[1].reset()
	members[0].set("/v2/partial", http.StatusBadRequest)
	resp, body = postJSON(t, client, routerTS.URL+"/v2/query", query)
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("query = 200 with a 4xx primary: %s", body)
	}
	if n := members[1].count("/v2/partial"); n != 0 {
		t.Errorf("4xx was retried onto the follower %d times", n)
	}

	// Ingest is never retried: one attempt, primary only, error surfaced.
	members[0].reset()
	members[1].reset()
	members[0].set("/v1/ingest", http.StatusInternalServerError)
	batch := map[string]any{"records": []map[string]any{
		{"oid": 9001, "t": 2500, "samples": []map[string]any{{"ploc": 0, "prob": 1.0}}},
	}}
	resp, body = postJSON(t, client, routerTS.URL+"/v1/ingest", batch)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failed routed ingest = %d, want 503: %s", resp.StatusCode, body)
	}
	var env struct {
		Error    string       `json:"error"`
		Degraded DegradedJSON `json:"degraded"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error == "" || env.Degraded.Shard != 0 {
		t.Fatalf("failed ingest envelope: %s", body)
	}
	if n := members[0].count("/v1/ingest"); n != 1 {
		t.Errorf("primary saw %d ingest attempts, want exactly 1 (ingest is not idempotent)", n)
	}
	if n := members[1].count("/v1/ingest"); n != 0 {
		t.Errorf("follower saw %d ingest attempts, want 0", n)
	}

	// With the primary healthy again the same batch lands — still only on
	// the primary.
	members[0].reset()
	members[1].reset()
	resp, body = postJSON(t, client, routerTS.URL+"/v1/ingest", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered ingest = %d: %s", resp.StatusCode, body)
	}
	if n := members[1].count("/v1/ingest"); n != 0 {
		t.Errorf("follower saw %d ingest attempts, want 0", n)
	}
}

// TestRouterResolvesEndOfDataOncePerRequest: "te": 0 means end of data, and a
// request decides what that is once — one /v2/span round per shard however
// many members ask — so every member gets the same window and the batch still
// shares its pass.
func TestRouterResolvesEndOfDataOncePerRequest(t *testing.T) {
	sys := newSynSystem(t)
	c := startCluster(t, synB.Space, sys.Table(), 2)
	members := make([]*countingMember, len(c.slots))
	for i, slot := range c.slots {
		members[i] = newCountingMember(slot.h)
		slot.set(members[i])
	}

	batch := []map[string]any{
		{"kind": "topk", "k": 3, "te": 0},
		{"kind": "density", "k": 2, "te": 0},
		{"kind": "flow", "slocs": []int{1}, "te": 0},
	}
	resp, body := postJSON(t, c.routerTS.Client(), c.routerTS.URL+"/v2/query", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch = %d: %s", resp.StatusCode, body)
	}
	var out []QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	_, hi, _ := sys.Table().TimeSpan()
	for i, qr := range out {
		if qr.Te != int64(hi) {
			t.Errorf("member %d echoes te %d, want the cluster's end of data %d", i, qr.Te, hi)
		}
		if qr.Stats.SharedBatch != len(batch) {
			t.Errorf("member %d: shared_batch = %d, want %d", i, qr.Stats.SharedBatch, len(batch))
		}
	}
	for i, m := range members {
		if n := m.count("/v2/span"); n != 1 {
			t.Errorf("shard %d saw %d /v2/span calls for one request, want 1", i, n)
		}
		if n := m.count("/v2/partial"); n != 1 {
			t.Errorf("shard %d saw %d /v2/partial calls for one window group, want 1", i, n)
		}
	}
}

// TestRouterValidatesLikeStandalone: the driver validates before any row
// source is asked, so a query the wire conversion lets through but the engine
// rejects is the client's 400 on a router too — same body as standalone, no
// fan-out, not a shard's 400 reported as an outage.
func TestRouterValidatesLikeStandalone(t *testing.T) {
	sys := newSynSystem(t)
	_, soloTS := newTestServer(t, sys, Config{})
	c := startCluster(t, synB.Space, sys.Table(), 2)
	for _, req := range []any{
		map[string]any{"kind": "topk", "k": -1},
		[]map[string]any{{"kind": "topk", "k": 2}, {"kind": "topk", "slocs": []int{1, 1}}},
	} {
		wantResp, want := postJSON(t, soloTS.Client(), soloTS.URL+"/v2/query", req)
		gotResp, got := postJSON(t, c.routerTS.Client(), c.routerTS.URL+"/v2/query", req)
		if gotResp.StatusCode != http.StatusBadRequest || wantResp.StatusCode != http.StatusBadRequest || string(got) != string(want) {
			t.Errorf("%v: router %d %s, standalone %d %s", req, gotResp.StatusCode, got, wantResp.StatusCode, want)
		}
	}
	if n := c.routerSrv.router.fanOuts.Load(); n != 0 {
		t.Errorf("invalid queries fanned out %d times", n)
	}
}
