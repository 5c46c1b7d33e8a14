package cluster

import (
	"strings"
	"testing"

	"tkplq/internal/iupt"
)

func TestLoadAndValidation(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string
	}{
		{"two shards", `{"shards":["127.0.0.1:9001","127.0.0.1:9002"]}`, ""},
		{"scheme stripped", `{"shards":["http://a:1","b:2"]}`, ""},
		{"explicit objects", `{"shards":["a:1","b:2"],"objects":{"7":1,"42":0}}`, ""},
		{"no shards", `{"shards":[]}`, "no shards"},
		{"duplicate address", `{"shards":["a:1","http://a:1"]}`, "share address"},
		{"replica set", `{"shards":[["a:1","a:2"],"b:1"]}`, ""},
		{"empty replica list", `{"shards":[["a:1","a:2"],[]]}`, "empty replica list"},
		{"duplicate within set", `{"shards":[["a:1","a:1"]]}`, "share address"},
		{"duplicate member across shards", `{"shards":[["a:1","c:9"],["b:1","c:9"]]}`, "share address"},
		{"follower doubles as another primary", `{"shards":[["a:1","b:1"],["b:1","b:2"]]}`, "share address"},
		{"follower bad address", `{"shards":[["a:1","https://b:1"]]}`, "unsupported scheme"},
		{"replica entry not a string", `{"shards":[[1,2]]}`, "array of addresses"},
		{"missing port", `{"shards":["localhost"]}`, "missing port"},
		{"https rejected", `{"shards":["https://a:1"]}`, "unsupported scheme"},
		{"decorated url", `{"shards":["http://a:1/path"]}`, "bare host:port"},
		{"bad object key", `{"shards":["a:1"],"objects":{"x":0}}`, "not an object id"},
		{"object out of range", `{"shards":["a:1"],"objects":{"7":3}}`, "has 1 shards"},
		{"unknown field", `{"shards":["a:1"],"extra":true}`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := Parse(strings.NewReader(tc.json))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if topo.NumShards() == 0 {
					t.Fatal("valid topology has no shards")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestShardOfIsTotalAndStable(t *testing.T) {
	topo, err := New([]string{"a:1", "b:2", "c:3"})
	if err != nil {
		t.Fatal(err)
	}
	for oid := iupt.ObjectID(-5); oid < 2000; oid++ {
		s := topo.ShardOf(oid)
		if s < 0 || s >= topo.NumShards() {
			t.Fatalf("object %d assigned out-of-range shard %d", oid, s)
		}
		if s != topo.ShardOf(oid) {
			t.Fatalf("ShardOf(%d) is not stable", oid)
		}
		if !topo.Owns(oid, s) {
			t.Fatalf("Owns disagrees with ShardOf for %d", oid)
		}
	}
	// The hash should actually spread objects around, not pile them up.
	counts := make([]int, topo.NumShards())
	for oid := iupt.ObjectID(0); oid < 999; oid++ {
		counts[topo.ShardOf(oid)]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns no objects out of 999: %v", i, counts)
		}
	}
}

func TestExplicitAssignmentsOverrideHash(t *testing.T) {
	topo, err := Parse(strings.NewReader(`{"shards":["a:1","b:2"],"objects":{"7":1,"8":0}}`))
	if err != nil {
		t.Fatal(err)
	}
	if topo.ShardOf(7) != 1 || topo.ShardOf(8) != 0 {
		t.Fatalf("explicit assignments not honored: 7→%d 8→%d", topo.ShardOf(7), topo.ShardOf(8))
	}
}

func TestReplicaSetAccessors(t *testing.T) {
	topo, err := Parse(strings.NewReader(`{"shards":[["p0:1","f0:1","f0:2"],"p1:1"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumShards() != 2 {
		t.Fatalf("NumShards = %d, want 2", topo.NumShards())
	}
	if topo.Member(0, 0) != "p0:1" || topo.Member(1, 0) != "p1:1" {
		t.Fatalf("member 0 must be the boot-time primary: %q, %q", topo.Member(0, 0), topo.Member(1, 0))
	}
	if topo.NumMembers(0) != 3 || topo.NumMembers(1) != 1 {
		t.Fatalf("NumMembers = %d,%d, want 3,1", topo.NumMembers(0), topo.NumMembers(1))
	}
	if topo.Member(0, 2) != "f0:2" {
		t.Fatalf("Member(0,2) = %q, want f0:2", topo.Member(0, 2))
	}
	if topo.Member(0, 1) != "f0:1" {
		t.Fatalf("Member(0,1) = %q, want f0:1", topo.Member(0, 1))
	}

	// The equivalent programmatic constructor agrees with the file form.
	topo2, err := NewReplicated([][]string{{"p0:1", "f0:1", "f0:2"}, {"p1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if got, want := topo2.NumMembers(i), topo.NumMembers(i); got != want {
			t.Fatalf("NewReplicated NumMembers(%d) = %d, want %d", i, got, want)
		}
	}
	if _, err := NewReplicated([][]string{{"a:1"}, nil}); err == nil || !strings.Contains(err.Error(), "empty replica list") {
		t.Fatalf("NewReplicated with empty set: err = %v, want empty replica list", err)
	}
}

func TestAddrsRoundTrip(t *testing.T) {
	topo, err := New([]string{"http://a:1", " b:2 "})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Member(0, 0) != "a:1" || topo.Member(1, 0) != "b:2" {
		t.Fatalf("addresses not normalized: %q, %q", topo.Member(0, 0), topo.Member(1, 0))
	}
}
