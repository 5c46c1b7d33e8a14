// Package cluster implements the static object→shard partitioning behind
// the distributed tkplq deployment: a Topology names the shard processes of
// a cluster and assigns every object id to exactly one of them.
//
// The assignment is *static* — it never changes while the cluster runs — and
// *total*: every present and future ObjectID has an owner, either through
// the default FNV-1a hash or through an explicit per-object map with hash
// fallback for unlisted objects. Static totality is what makes the
// distributed system inherit the engine's determinism contract for free:
// each shard's table holds a disjoint, fixed subset of the objects, each
// shard computes its objects' presence contributions exactly as a standalone
// node would, and the router merges the per-object contributions in
// canonical ascending-object order — the same additions, in the same order,
// as a single process evaluating the union table (see core.MergePartials).
// It also makes per-shard WAL recovery compose: replaying shard i's log can
// only ever rebuild shard i's objects, so a cluster restarted from its data
// directories answers bit-identically to one that never restarted.
//
// A topology is written once as a JSON file and handed to every member of
// the cluster (router and shards) via `tkplqd -topology`; Load validates it
// at boot so a malformed or inconsistent file fails the process immediately
// instead of silently mis-routing ingest.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"os"
	"strconv"
	"strings"

	"tkplq/internal/iupt"
)

// topologyFile is the on-disk JSON shape of a Topology.
//
//	{
//	  "shards": ["127.0.0.1:9001", ["127.0.0.1:9002", "127.0.0.1:9003"]],
//	  "objects": {"7": 0, "42": 1}   // optional explicit assignments
//	}
//
// Each entry of "shards" is one shard's replica set: either a bare address
// (a single-member shard) or an array whose first element is the shard's
// boot-time primary and whose remaining elements are followers. Addresses
// are host:port, optionally with an http:// scheme. Objects not listed in
// "objects" — including objects that first appear in a future ingest — are
// assigned by hashing their id, so the map stays total without having to
// enumerate the universe of object ids up front.
type topologyFile struct {
	Shards  []replicaSet   `json:"shards"`
	Objects map[string]int `json:"objects,omitempty"`
}

// replicaSet accepts either a bare address string or an array of member
// addresses, so single-member topologies keep the PR-7 file format.
type replicaSet []string

func (r *replicaSet) UnmarshalJSON(b []byte) error {
	t := strings.TrimLeft(string(b), " \t\r\n")
	if strings.HasPrefix(t, "\"") {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		*r = replicaSet{s}
		return nil
	}
	var ss []string
	if err := json.Unmarshal(b, &ss); err != nil {
		return fmt.Errorf("shard entry must be an address or an array of addresses: %w", err)
	}
	*r = ss
	return nil
}

// Topology is a validated static object→shard assignment over a fixed list
// of shard replica sets. The zero value is invalid; build one with Load,
// Parse, New or NewReplicated.
type Topology struct {
	sets    [][]string            // sets[i][0] is shard i's boot-time primary
	objects map[iupt.ObjectID]int // explicit overrides; nil = pure hash
}

// New builds an all-hash topology of single-member shards (index i in the
// slice is shard i's only member). It validates like Load.
func New(shards []string) (*Topology, error) {
	f := topologyFile{Shards: make([]replicaSet, len(shards))}
	for i, a := range shards {
		f.Shards[i] = replicaSet{a}
	}
	return build(f)
}

// NewReplicated builds an all-hash topology of replica sets: sets[i][0] is
// shard i's boot-time primary, the rest are followers. It validates like
// Load.
func NewReplicated(sets [][]string) (*Topology, error) {
	f := topologyFile{Shards: make([]replicaSet, len(sets))}
	for i, s := range sets {
		f.Shards[i] = replicaSet(append([]string(nil), s...))
	}
	return build(f)
}

// Load reads and validates a topology file. Every member of a cluster must
// load the same file: the router uses it to fan out and merge, each shard
// uses it to refuse ingest of objects it does not own.
func Load(path string) (*Topology, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", path, err)
	}
	return t, nil
}

// Parse reads and validates a topology from JSON.
func Parse(r io.Reader) (*Topology, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f topologyFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("parsing topology: %w", err)
	}
	return build(f)
}

// build validates the raw file shape into a Topology. Validation is strict:
// a topology error at boot is a configuration bug, and mis-routed ingest
// would silently split an object's positioning sequence across shards —
// corrupting every flow it contributes to — so nothing is forgiven here. An
// address appearing twice anywhere in the file (within one replica set,
// across two sets, or as one shard's follower and another's primary) is
// rejected: a process can hold exactly one shard's data.
func build(f topologyFile) (*Topology, error) {
	if len(f.Shards) == 0 {
		return nil, fmt.Errorf("topology has no shards")
	}
	type memberPos struct{ shard, member int }
	seen := make(map[string]memberPos, len(f.Shards))
	sets := make([][]string, len(f.Shards))
	for i, set := range f.Shards {
		if len(set) == 0 {
			return nil, fmt.Errorf("shard %d has an empty replica list", i)
		}
		sets[i] = make([]string, len(set))
		for m, addr := range set {
			norm, err := normalizeAddr(addr)
			if err != nil {
				return nil, fmt.Errorf("shard %d member %d: %w", i, m, err)
			}
			if p, dup := seen[norm]; dup {
				return nil, fmt.Errorf("shard %d member %d and shard %d member %d share address %q", p.shard, p.member, i, m, norm)
			}
			seen[norm] = memberPos{i, m}
			sets[i][m] = norm
		}
	}
	t := &Topology{sets: sets}
	if len(f.Objects) > 0 {
		t.objects = make(map[iupt.ObjectID]int, len(f.Objects))
		for key, idx := range f.Objects {
			oid, err := strconv.ParseInt(key, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("object key %q is not an object id", key)
			}
			if idx < 0 || idx >= len(f.Shards) {
				return nil, fmt.Errorf("object %s assigned to shard %d, but the topology has %d shards", key, idx, len(f.Shards))
			}
			t.objects[iupt.ObjectID(oid)] = idx
		}
	}
	return t, nil
}

// normalizeAddr validates one shard address and strips an optional http://
// scheme, returning bare host:port. https, userinfo, paths and queries are
// rejected: shards speak plain HTTP on a private network, and a decorated
// URL in the topology file is almost certainly a mistake.
func normalizeAddr(addr string) (string, error) {
	s := strings.TrimSpace(addr)
	if s == "" {
		return "", fmt.Errorf("empty address")
	}
	if strings.Contains(s, "://") {
		u, err := url.Parse(s)
		if err != nil {
			return "", fmt.Errorf("address %q: %w", addr, err)
		}
		if u.Scheme != "http" {
			return "", fmt.Errorf("address %q: unsupported scheme %q (shards speak plain http)", addr, u.Scheme)
		}
		if u.User != nil || (u.Path != "" && u.Path != "/") || u.RawQuery != "" || u.Fragment != "" {
			return "", fmt.Errorf("address %q: want a bare host:port", addr)
		}
		s = u.Host
	}
	if !strings.Contains(s, ":") {
		return "", fmt.Errorf("address %q: missing port", addr)
	}
	return s, nil
}

// NumShards returns the number of shards in the topology.
func (t *Topology) NumShards() int { return len(t.sets) }

// NumMembers returns the size of shard i's replica set.
func (t *Topology) NumMembers(i int) int { return len(t.sets[i]) }

// Member returns shard i's m-th member address (member 0 is the boot-time
// primary).
func (t *Topology) Member(i, m int) string { return t.sets[i][m] }

// ShardOf returns the owning shard index for an object id: the explicit
// assignment when the topology lists one, otherwise an FNV-1a hash of the
// id's 8 little-endian bytes modulo the shard count. The function is pure —
// same topology, same object, same answer, on every process — which is the
// whole point: router and shards never have to agree on anything at runtime.
func (t *Topology) ShardOf(oid iupt.ObjectID) int {
	if idx, ok := t.objects[oid]; ok {
		return idx
	}
	return int(hashOID(oid) % uint64(len(t.sets)))
}

// hashOID is FNV-1a over the object id's 8 little-endian bytes.
func hashOID(oid iupt.ObjectID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	v := uint64(oid)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

// Owns reports whether shard idx owns the object.
func (t *Topology) Owns(oid iupt.ObjectID, idx int) bool { return t.ShardOf(oid) == idx }
