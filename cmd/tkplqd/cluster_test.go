package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestDaemonClusterEndToEnd boots two shard daemons and a router daemon as
// three real processes-worth of run() instances over ephemeral ports, plus a
// standalone daemon over the same generated dataset, and checks the router
// answers a query identically to the standalone node.
//
// The shards only use the topology for ownership (shard count + index), not
// for their own address, so they boot against a provisional topology file;
// the router gets a second file carrying the shards' actual bound addresses.
func TestDaemonClusterEndToEnd(t *testing.T) {
	dir := t.TempDir()
	dataset := []string{"-objects", "8", "-duration", "900", "-seed", "3"}

	shardTopo := filepath.Join(dir, "topology-shards.json")
	if err := os.WriteFile(shardTopo, []byte(`{"shards":["127.0.0.1:1","127.0.0.1:2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}

	shardAddrs := make([]string, 2)
	for i := range shardAddrs {
		args := append([]string{"-addr", "127.0.0.1:0",
			"-role", "shard", "-topology", shardTopo, "-shard-index", strconv.Itoa(i)}, dataset...)
		base, out, stop := startDaemon(t, args)
		defer stop()
		shardAddrs[i] = strings.TrimPrefix(base, "http://")
		if !strings.Contains(out.String(), "role shard") {
			t.Fatalf("shard %d did not announce its role: %s", i, out.String())
		}
	}

	routerTopo := filepath.Join(dir, "topology.json")
	topoJSON, err := json.Marshal(map[string]any{"shards": shardAddrs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(routerTopo, topoJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	routerBase, rout, stopRouter := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-role", "router", "-topology", routerTopo,
	})
	defer stopRouter()
	if !strings.Contains(rout.String(), "role router") {
		t.Fatalf("router did not announce its role: %s", rout.String())
	}

	standaloneBase, _, stopStandalone := startDaemon(t, append([]string{"-addr", "127.0.0.1:0"}, dataset...))
	defer stopStandalone()

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
	for _, q := range []string{
		`{"kind":"topk","algorithm":"bf","k":5}`,
		`{"kind":"topk","algorithm":"naive","k":3,"te":600}`,
		`{"kind":"density","k":4,"te":900}`,
	} {
		want := results(standaloneBase, q)
		if got := results(routerBase, q); got != want {
			t.Errorf("router diverged from standalone on %s:\n got %s\nwant %s", q, got, want)
		}
	}

	// The shards' partitions union to the standalone table.
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
	total := 0
	for _, addr := range shardAddrs {
		total += records("http://" + addr)
	}
	if want := records(standaloneBase); total != want {
		t.Errorf("shard partitions hold %d records, standalone holds %d", total, want)
	}
}

// TestDaemonClusterFlagValidation exercises the boot-time role validation:
// every invalid flag combination must fail fast with a pointed error.
func TestDaemonClusterFlagValidation(t *testing.T) {
	topoFile := filepath.Join(t.TempDir(), "topology.json")
	if err := os.WriteFile(topoFile, []byte(`{"shards":["127.0.0.1:1","127.0.0.1:2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"shard without topology", []string{"-role", "shard"}, "requires -topology"},
		{"router without topology", []string{"-role", "router"}, "requires -topology"},
		{"standalone with topology", []string{"-topology", topoFile}, "requires -role shard or -role router"},
		{"shard index out of range", []string{"-role", "shard", "-topology", topoFile, "-shard-index", "2"}, "out of range"},
		{"shard index missing", []string{"-role", "shard", "-topology", topoFile}, "out of range"},
		{"unknown role", []string{"-role", "proxy"}, "unknown -role"},
		{"router with data-dir", []string{"-role", "router", "-topology", topoFile, "-data-dir", t.TempDir()}, "router holds no records"},
		{"missing topology file", []string{"-role", "router", "-topology", filepath.Join(t.TempDir(), "nope.json")}, "no such file"},
		{"replica-of without data-dir", []string{"-replica-of", "127.0.0.1:9"}, "-replica-of requires -data-dir"},
		{"router with replica-of", []string{"-role", "router", "-topology", topoFile,
			"-replica-of", "127.0.0.1:9", "-data-dir", t.TempDir()}, "router holds no records to replicate"},
		{"compact-interval without data-dir", []string{"-compact-interval", "10m"}, "-compact-interval requires -data-dir"},
		{"compact-min-inputs without data-dir", []string{"-compact-min-inputs", "2"}, "-compact-min-inputs requires -data-dir"},
		{"compact-target-bytes without data-dir", []string{"-compact-target-bytes", "1024"}, "-compact-target-bytes requires -data-dir"},
		{"keep-segments without data-dir", []string{"-keep-segments", "2"}, "-keep-segments requires -data-dir"},
		{"snapshot-interval without data-dir", []string{"-snapshot-interval", "1m"}, "-snapshot-interval requires -data-dir"},
		{"several store flags without data-dir", []string{"-snapshot-interval", "1m", "-compact-interval", "10m"},
			"-compact-interval, -snapshot-interval requires -data-dir"},
		{"removed -storage flag", []string{"-data-dir", t.TempDir(), "-storage", "parts"}, "flag provided but not defined: -storage"},
		{"replica-of with compact-interval", []string{"-replica-of", "127.0.0.1:9", "-data-dir", t.TempDir(),
			"-compact-interval", "10m"}, "-compact-interval cannot be used with -replica-of"},
		{"replica-of with compact-min-inputs", []string{"-replica-of", "127.0.0.1:9", "-data-dir", t.TempDir(),
			"-compact-min-inputs", "2"}, "-compact-min-inputs cannot be used with -replica-of"},
		{"replica-of with compact-target-bytes", []string{"-replica-of", "127.0.0.1:9", "-data-dir", t.TempDir(),
			"-compact-target-bytes", "1024"}, "-compact-target-bytes cannot be used with -replica-of"},
		{"fsync without data-dir", []string{"-fsync", "interval"}, "-fsync requires -data-dir"},
		{"replication flags without data-dir", []string{"-advertise", "127.0.0.1:9", "-repl-heartbeat", "1s", "-repl-window", "1024"},
			"-advertise, -repl-heartbeat, -repl-window requires -data-dir"},
		{"repl-window below the ack floor", []string{"-data-dir", t.TempDir(), "-repl-window", "524287"},
			"-repl-window 524287 is below the 524288-byte floor"},
		{"fsync-interval with fsync always", []string{"-data-dir", t.TempDir(), "-fsync-interval", "10ms"}, "-fsync-interval requires -fsync interval"},
		{"store flags on router", []string{"-role", "router", "-topology", topoFile, "-snapshot-every", "10"},
			"-snapshot-every cannot be used with -role router"},
		{"shard-index on standalone", []string{"-shard-index", "0"}, "-shard-index requires -role shard"},
		{"router flags on shard", []string{"-role", "shard", "-topology", topoFile, "-shard-index", "0",
			"-health-interval", "1s", "-shard-timeout", "1s"}, "-health-interval, -shard-timeout requires -role router"},
		{"dataset flags on router", []string{"-role", "router", "-topology", topoFile, "-iupt", iuptFile(t)},
			"-iupt cannot be used with -role router"},
		{"dataset flags on follower", []string{"-replica-of", "127.0.0.1:9", "-data-dir", t.TempDir(),
			"-objects", "5", "-seed", "3"}, "-objects, -seed cannot be used with -replica-of"},
		{"format without iupt", []string{"-format", "bin"}, "-format requires -iupt"},
		{"generator flags with iupt", []string{"-iupt", iuptFile(t), "-duration", "60"}, "-duration cannot be used with -iupt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A deadline, so that a combination the daemon accepts fails
			// instead of waiting forever in the follower bootstrap.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var out syncBuffer
			err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, tc.args...), &out)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestDaemonRefusesIgnoredFlags walks the (member, explicitly set flag) pairs
// the one flag rule refuses beyond the older -data-dir and -replica-of checks
// — 49 across the seven members plus four dataset-source pairs — and checks
// that each fails the boot with an error naming the flag.
func TestDaemonRefusesIgnoredFlags(t *testing.T) {
	topoFile := filepath.Join(t.TempDir(), "topology.json")
	if err := os.WriteFile(topoFile, []byte(`{"shards":["127.0.0.1:1","127.0.0.1:2"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	values := map[string]string{
		"fsync": "interval", "fsync-interval": "10ms", "snapshot-every": "5", "repl-heartbeat": "1s",
		"repl-window": "1024", "advertise": "127.0.0.1:9", "shard-index": "0", "shard-timeout": "1s",
		"health-interval": "1s", "iupt": iuptFile(t), "format": "bin", "objects": "5", "duration": "60", "seed": "3",
	}
	shard := []string{"-role", "shard", "-topology", topoFile, "-shard-index", "0"}
	follower := []string{"-replica-of", "127.0.0.1:9", "-data-dir", t.TempDir()}
	storeFlags := []string{"fsync", "fsync-interval", "snapshot-every", "repl-heartbeat", "repl-window", "advertise"}
	datasetFlags := []string{"iupt", "format", "objects", "duration", "seed"}
	members := []struct {
		name    string
		args    []string
		ignored []string
	}{
		{"in-memory standalone", nil, append([]string{"shard-index", "shard-timeout", "health-interval"}, storeFlags...)},
		{"in-memory shard", shard, append([]string{"shard-timeout", "health-interval"}, storeFlags...)},
		{"durable standalone", []string{"-data-dir", t.TempDir()}, []string{"shard-index", "shard-timeout", "health-interval"}},
		{"durable shard", append([]string{"-data-dir", t.TempDir()}, shard...), []string{"shard-timeout", "health-interval"}},
		{"standalone follower", follower, append([]string{"shard-index", "shard-timeout", "health-interval"}, datasetFlags...)},
		{"shard follower", append(follower, shard...), append([]string{"shard-timeout", "health-interval"}, datasetFlags...)},
		{"router", []string{"-role", "router", "-topology", topoFile},
			append(append([]string{"shard-index"}, storeFlags...), datasetFlags...)},
		{"generating", nil, []string{"format"}},
		{"loading -iupt", []string{"-iupt", iuptFile(t)}, []string{"objects", "duration", "seed"}},
	}
	pairs := 0
	for _, m := range members {
		for _, name := range m.ignored {
			pairs++
			t.Run(m.name+"/"+name, func(t *testing.T) {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				args := append([]string{"-addr", "127.0.0.1:0", "-" + name, values[name]}, m.args...)
				var out syncBuffer
				err := run(ctx, args, &out)
				if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
					t.Fatalf("run(%q) = %v, want the boot refused naming -%s", args, err, name)
				}
			})
		}
	}
	if pairs != 49+4 {
		t.Errorf("walked %d pairs, want 53", pairs)
	}
}

// iuptFile writes a small gendata CSV that tkplqd loads with -iupt.
func iuptFile(t *testing.T) string {
	t.Helper()
	sys, err := buildSystem("syn", "", "csv", 2, 120, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "iupt.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := sys.Table().WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}
