package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDaemonReplicatedFailover boots the full kill-anything topology as
// in-process run() instances: two shards with one follower each, a router
// over both replica sets, and a standalone reference daemon on the same
// generated dataset. It then walks the failover lifecycle end to end:
//
//  1. routed reads and ingest match the standalone node byte-for-byte,
//  2. the shard-0 primary is stopped and reads keep matching immediately
//     (the router retries idempotent reads onto the synced follower),
//  3. the router promotes the follower and routed ingest resumes,
//  4. the old primary rejoins as a follower of the new one over its
//     original data directory and catches up without a full resync.
func TestDaemonReplicatedFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon replication test")
	}
	dir := t.TempDir()
	dataset := []string{"-objects", "8", "-duration", "900", "-seed", "3"}

	// Shards only use the topology for ownership (count + index), so they
	// boot against a provisional file; the router gets the real addresses.
	shardTopo := filepath.Join(dir, "topology-shards.json")
	if err := os.WriteFile(shardTopo, []byte(`{"shards":["127.0.0.1:1","127.0.0.1:2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	startShard := func(idx int, name, dataDir string, extra ...string) (string, func()) {
		t.Helper()
		args := append([]string{
			"-addr", "127.0.0.1:0", "-advertise", name,
			"-role", "shard", "-topology", shardTopo, "-shard-index", strconv.Itoa(idx),
			"-data-dir", dataDir,
			"-keep-segments", "8", "-repl-heartbeat", "50ms",
		}, extra...)
		base, _, stop := startDaemon(t, args)
		return base, stop
	}

	waitReady := func(base, what string) {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(base + "/readyz")
			if err == nil {
				ok := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ok {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never became ready", what)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	d0a := filepath.Join(dir, "s0a")
	d0b := filepath.Join(dir, "s0b")
	d1a := filepath.Join(dir, "s1a")
	d1b := filepath.Join(dir, "s1b")

	// Primaries generate the dataset; followers never do — partition 1
	// arrives from the primary, which is what makes them bit-identical.
	base0a, stop0a := startShard(0, "s0a", d0a, dataset...)
	base1a, stop1a := startShard(1, "s1a", d1a, dataset...)
	defer stop1a()
	addr0a := strings.TrimPrefix(base0a, "http://")
	addr1a := strings.TrimPrefix(base1a, "http://")

	base0b, stop0b := startShard(0, "s0b", d0b, "-replica-of", addr0a)
	defer stop0b()
	base1b, stop1b := startShard(1, "s1b", d1b, "-replica-of", addr1a)
	defer stop1b()
	addr0b := strings.TrimPrefix(base0b, "http://")
	waitReady(base0b, "follower s0b")
	waitReady(base1b, "follower s1b")

	routerTopo := filepath.Join(dir, "topology.json")
	topoJSON, err := json.Marshal(map[string]any{"shards": [][]string{
		{addr0a, addr0b}, {addr1a, strings.TrimPrefix(base1b, "http://")},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(routerTopo, topoJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	routerBase, _, stopRouter := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-role", "router", "-topology", routerTopo,
		"-health-interval", "50ms",
	})
	defer stopRouter()

	standaloneBase, _, stopStandalone := startDaemon(t,
		append([]string{"-addr", "127.0.0.1:0"}, dataset...))
	defer stopStandalone()

	queries := []string{
		`{"kind":"topk","algorithm":"bf","k":5}`,
		`{"kind":"topk","algorithm":"naive","k":3,"te":600}`,
		`{"kind":"density","k":4,"te":900}`,
	}
	results := func(base, query string) string {
		t.Helper()
		resp, err := http.Post(base+"/v2/query", "application/json", strings.NewReader(query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s = %d: %s", query, resp.StatusCode, body["error"])
		}
		return string(body["results"])
	}
	compare := func(stage string) {
		t.Helper()
		for _, q := range queries {
			want := results(standaloneBase, q)
			if got := results(routerBase, q); got != want {
				t.Errorf("%s: router diverged from standalone on %s:\n got %s\nwant %s", stage, q, got, want)
			}
		}
	}
	ingest := func(base, body, what string) {
		t.Helper()
		resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			raw, _ := json.Marshal(resp.Header)
			var msg map[string]json.RawMessage
			_ = json.NewDecoder(resp.Body).Decode(&msg)
			t.Fatalf("%s = %d: %v %s", what, resp.StatusCode, msg, raw)
		}
	}
	// OIDs 101..106 span both shards regardless of the ownership hash.
	batch := func(baseT int64) string {
		var sb strings.Builder
		sb.WriteString(`{"records":[`)
		for i := int64(0); i < 6; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"oid":%d,"t":%d,"samples":[{"ploc":%d,"prob":0.6},{"ploc":%d,"prob":0.4}]}`,
				101+i, baseT+3*i, i%3, 3+i%3)
		}
		sb.WriteString(`]}`)
		return sb.String()
	}

	type memberHealth struct {
		Addr    string `json:"addr"`
		Primary bool   `json:"primary"`
		Ready   bool   `json:"ready"`
	}
	type shardStat struct {
		Addr    string         `json:"addr"`
		Primary int            `json:"primary"`
		Members []memberHealth `json:"members"`
	}
	type clusterSection struct {
		Failovers int64       `json:"failovers"`
		Shards    []shardStat `json:"shards"`
	}
	clusterStats := func() clusterSection {
		t.Helper()
		resp, err := http.Get(routerBase + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Cluster clusterSection `json:"cluster"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body.Cluster
	}
	waitCluster := func(what string, ok func(clusterSection) bool) clusterSection {
		t.Helper()
		deadline := time.Now().Add(60 * time.Second)
		for {
			cs := clusterStats()
			if ok(cs) {
				return cs
			}
			if time.Now().After(deadline) {
				raw, _ := json.Marshal(cs)
				t.Fatalf("router never observed %s: %s", what, raw)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}

	// Phase 1: healthy cluster. Wait until the router's health loop has
	// marked every member ready, so reads can fail over with zero probes.
	waitCluster("all four members ready", func(cs clusterSection) bool {
		n := 0
		for _, s := range cs.Shards {
			for _, m := range s.Members {
				if m.Ready {
					n++
				}
			}
		}
		return n == 4
	})
	compare("healthy cluster")
	ingest(routerBase, batch(910), "routed ingest")
	ingest(standaloneBase, batch(910), "standalone ingest")
	compare("after routed ingest")

	// Phase 2: kill the shard-0 primary. Reads must keep answering
	// identically immediately — the router retries the read legs onto the
	// synced follower without waiting for a health probe.
	stop0a()
	compare("shard 0 primary down")

	// Phase 3: the health loop promotes the follower and ingest resumes.
	waitCluster("shard 0 failover", func(cs clusterSection) bool {
		return cs.Failovers >= 1 && len(cs.Shards) == 2 && cs.Shards[0].Addr == addr0b
	})
	ingest(routerBase, batch(950), "routed ingest after failover")
	ingest(standaloneBase, batch(950), "standalone ingest after failover")
	compare("after failover ingest")

	// Phase 4: the old primary rejoins as a follower of the promoted one,
	// over its original data directory. Its WAL is a committed prefix of
	// the new primary's, so it must catch up without a full resync.
	base0a2, stop0a2 := startShard(0, "s0a", d0a, "-replica-of", addr0b)
	defer stop0a2()
	waitReady(base0a2, "rejoined follower s0a")
	compare("after rejoin")

	resp, err := http.Get(base0a2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Replication struct {
			Upstream struct {
				Primary     string `json:"primary"`
				FullResyncs int64  `json:"full_resyncs"`
			} `json:"upstream"`
		} `json:"replication"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := stats.Replication.Upstream.Primary; got != addr0b {
		t.Errorf("rejoined follower replicates from %q, want %q", got, addr0b)
	}
	if n := stats.Replication.Upstream.FullResyncs; n != 0 {
		t.Errorf("rejoined follower full-resynced %d times; its WAL was a clean prefix", n)
	}
}

// TestFollowerNeverSealsPeriodically: a follower booted with
// -snapshot-interval cuts no partition of its own while it follows — its
// seal boundaries are the primary's, so its seal_seq stays equal to the
// primary's across many ticks over a non-empty head. Once promoted it is a
// primary, and the same timer seals its head.
func TestFollowerNeverSealsPeriodically(t *testing.T) {
	dir := t.TempDir()
	primary, _, stopPrimary := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-objects", "4", "-duration", "300", "-seed", "3",
		"-data-dir", filepath.Join(dir, "primary"), "-repl-heartbeat", "50ms",
	})
	defer stopPrimary()
	fol, _, stopFollower := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-data-dir", filepath.Join(dir, "follower"),
		"-replica-of", strings.TrimPrefix(primary, "http://"), "-snapshot-interval", "1ms",
	})
	defer stopFollower()

	post := func(base, path, body string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s%s = %d", base, path, resp.StatusCode)
		}
	}
	records := func(base string) int {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Records int `json:"records"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Records
	}
	for i := 0; i < 5; i++ {
		post(primary, "/v1/ingest", fmt.Sprintf(`{"records":[{"oid":9001,"t":%d,"samples":[{"ploc":0,"prob":1.0}]}]}`, 400+i))
		for deadline := time.Now().Add(30 * time.Second); records(fol) != records(primary); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("follower holds %d records, primary %d", records(fol), records(primary))
			}
		}
		time.Sleep(20 * time.Millisecond) // twenty ticks over a head that holds records
		if requested, seq := sealState(t, fol); requested != 0 {
			t.Fatalf("follower requested %d seals of its own", requested)
		} else if _, want := sealState(t, primary); seq != want {
			t.Fatalf("follower seal_seq %d, primary's %d", seq, want)
		}
	}

	post(fol, "/v2/promote", `{}`)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if requested, _ := sealState(t, fol); requested >= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("promoted follower never sealed on its -snapshot-interval")
		}
	}
}
