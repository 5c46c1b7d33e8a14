package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/parts"
	"tkplq/internal/repl"
)

// TestMemberRoutes pins the member × route matrix: for an in-memory and a
// durable standalone member, a shard and a router, every route either serves
// a minimal valid request (any status but 501) or refuses it with the 501
// JSON envelope and its exact message, and every route answers the wrong
// method with the 405 envelope naming the right one in Allow.
func TestMemberRoutes(t *testing.T) {
	const (
		noStore = "persistence not configured (start tkplqd with -data-dir)"
		noRepl  = "replication not configured on this member"
	)
	table := newSynSystem(t).Table()
	c := startCluster(t, synB.Space, table, 2)

	memSys, err := tkplq.NewSystem(synB.Space, cloneTable(table), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, mem := newTestServer(t, memSys, Config{})

	store, recovered, err := parts.Open(parts.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	durSys, err := tkplq.NewSystem(synB.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	durSys.SetPersister(store)
	_, dur := newTestServer(t, durSys, Config{Store: store})

	members := []struct{ name, url string }{
		{"in-memory", mem.URL},
		{"durable", dur.URL},
		{"shard", c.shardTS[0].URL},
		{"router", c.routerTS.URL},
	}
	oid := oidOwnedBy(c.topo, 0, 1<<20)
	routes := []struct {
		method, path, query string
		body                func(member int) string
		// refused maps a member to the message of its 501; a member absent
		// from it serves the route.
		refused map[string]string
	}{
		{method: http.MethodPost, path: "/v2/query", body: constBody(`{"k":1,"te":900}`)},
		{method: http.MethodGet, path: "/v2/subscribe", query: "?window=900&k=3",
			refused: map[string]string{"router": "subscriptions are per-shard in a cluster (GET /v2/subscribe on a shard)"}},
		{method: http.MethodPost, path: "/v1/ingest", body: func(member int) string {
			// One record of an object shard 0 owns, later on every member.
			return fmt.Sprintf(`{"records":[{"oid":%d,"t":%d,"samples":[{"ploc":0,"prob":1}]}]}`, oid, 5000+member)
		}},
		{method: http.MethodPost, path: "/v1/snapshot", refused: map[string]string{
			"in-memory": noStore, "shard": noStore,
			"router": "snapshots are per-shard (POST /v1/snapshot on each shard)"}},
		{method: http.MethodPost, path: "/v1/compact", refused: map[string]string{
			"in-memory": noStore, "shard": noStore,
			"router": "compaction is per-shard (POST /v1/compact on each shard)"}},
		{method: http.MethodPost, path: "/v2/partial", body: constBody(`{"k":1,"te":900}`),
			refused: map[string]string{"router": "partials are per-shard (POST /v2/partial on each shard); a router holds no records"}},
		{method: http.MethodGet, path: "/v2/span",
			refused: map[string]string{"router": "spans are per-shard (GET /v2/span on each shard); a router holds no records"}},
		{method: http.MethodGet, path: "/v1/stats"},
		{method: http.MethodGet, path: "/healthz"},
		{method: http.MethodGet, path: "/readyz"},
		{method: http.MethodPost, path: repl.PathReplicate, body: constBody(`{}`), refused: everyMember(noRepl)},
		{method: http.MethodPost, path: repl.PathReplicateAck, body: constBody(`{}`), refused: everyMember(noRepl)},
		{method: http.MethodPost, path: repl.PathPromote, refused: everyMember(noRepl)},
	}

	for i, m := range members {
		for _, rt := range routes {
			body := ""
			if rt.body != nil {
				body = rt.body(i)
			}
			label := m.name + " " + rt.method + " " + rt.path
			resp, out := send(t, rt.method, m.url+rt.path+rt.query, body)
			if want, ok := rt.refused[m.name]; ok {
				if resp.StatusCode != http.StatusNotImplemented {
					t.Errorf("%s = %d (%.200s), want 501", label, resp.StatusCode, out)
				} else if got := envelopeError(t, label, resp, out); got != want {
					t.Errorf("%s refused with %q, want %q", label, got, want)
				}
			} else if resp.StatusCode == http.StatusNotImplemented {
				t.Errorf("%s = 501 (%s), want it served", label, out)
			}

			wrong := http.MethodPost
			if rt.method == http.MethodPost {
				wrong = http.MethodGet
			}
			resp, out = send(t, wrong, m.url+rt.path, "")
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s with %s = %d, want 405", label, wrong, resp.StatusCode)
				continue
			}
			envelopeError(t, label+" ("+wrong+")", resp, out)
			if allow := resp.Header.Get("Allow"); allow != rt.method {
				t.Errorf("%s with %s: Allow = %q, want %q", label, wrong, allow, rt.method)
			}
		}
	}
}

func constBody(s string) func(int) string { return func(int) string { return s } }

func everyMember(why string) map[string]string {
	return map[string]string{"in-memory": why, "durable": why, "shard": why, "router": why}
}

// send makes one request and returns the response and its body. A served
// /v2/subscribe is an endless stream, of which only the status and headers
// matter here: its body is left unread, and the request ends on return.
func send(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if resp.Header.Get("Content-Type") == "text/event-stream" {
		return resp, nil
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	return resp, out
}

// envelopeError checks that a refusal is the JSON error envelope and returns
// its message.
func envelopeError(t *testing.T, label string, resp *http.Response, body []byte) string {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type = %q, want application/json", label, ct)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error == "" {
		t.Errorf("%s: body %q is not a JSON error envelope", label, body)
	}
	return env.Error
}

// TestNewRefusals: New refuses every configuration no member can serve,
// naming what is wrong, before it builds anything.
func TestNewRefusals(t *testing.T) {
	sys, _ := newPaperSystem(t)
	topo, err := cluster.New([]string{"127.0.0.1:1", "127.0.0.1:2"})
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := parts.Open(parts.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	src := &repl.Source{}
	for _, c := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"nil system", Config{}, "nil System"},
		{"unknown role", Config{System: sys, Role: "leader"}, `unknown role "leader"`},
		{"shard without topology", Config{System: sys, Role: RoleShard}, "shard role requires a topology"},
		{"router without topology", Config{System: sys, Role: RoleRouter}, "router role requires a topology"},
		{"shard index below range", Config{System: sys, Role: RoleShard, Topology: topo, ShardIndex: -1}, "shard index -1 out of range"},
		{"shard index above range", Config{System: sys, Role: RoleShard, Topology: topo, ShardIndex: 2}, "shard index 2 out of range"},
		{"replicating router", Config{System: sys, Role: RoleRouter, Topology: topo, Store: store,
			Replication: &ReplConfig{Source: src}}, "the router role does not replicate"},
		{"interval without store", Config{System: sys, SnapshotInterval: time.Second}, "SnapshotInterval requires a Store"},
		{"replication without source", Config{System: sys, Store: store, Replication: &ReplConfig{}}, "Replication requires a Source"},
		{"replication without store", Config{System: sys, Replication: &ReplConfig{Source: src}}, "Replication requires a Store"},
	} {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: New error = %v, want one naming %q", c.name, err, c.want)
		}
	}
}
