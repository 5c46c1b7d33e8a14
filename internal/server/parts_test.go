package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"tkplq"
	"tkplq/internal/parts"
)

// TestPartitionedStoreOverHTTP drives the partitioned storage surface over
// the HTTP API: the `storage` stats section appears with a parts store
// attached, /v1/snapshot seals a partition (not a flat snapshot), and a
// restart maps the sealed set without decoding it — replaying only the WAL
// tail — while answering the same query identically.
func TestPartitionedStoreOverHTTP(t *testing.T) {
	dir := t.TempDir()
	fig := tkplq.PaperExampleSpace()
	ids := &struct {
		PLocs [9]tkplq.PLocID
		SLocs [6]tkplq.SLocID
	}{PLocs: fig.PLocs, SLocs: fig.SLocs}

	store, recovered, err := parts.Open(parts.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := tkplq.NewSystem(fig.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(store)
	_, ts := newTestServer(t, sys, Config{Store: store})
	client := ts.Client()

	get := func(url string) StatsResponse {
		t.Helper()
		r, err := client.Get(url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var out StatsResponse
		if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	// Fresh partitioned store: storage section present and empty, wal
	// section present alongside it.
	stats := get(ts.URL)
	if stats.Storage == nil {
		t.Fatal("stats missing storage section with a partitioned store attached")
	}
	if stats.Storage.Partitions != 0 || stats.Storage.SealSeq != 0 {
		t.Fatalf("fresh store storage stats = %+v", stats.Storage)
	}
	if stats.WAL == nil {
		t.Fatal("stats missing wal section with a partitioned store attached")
	}

	// Ingest three records and seal them via the snapshot endpoint.
	resp, body := postJSON(t, client, ts.URL+"/v1/ingest", ingestBody(ids, 1, 0, 3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, client, ts.URL+"/v1/snapshot", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", resp.StatusCode, body)
	}
	var snap SnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SnapshotSeq != 1 || snap.Records != 3 {
		t.Fatalf("seal response = %+v", snap)
	}
	stats = get(ts.URL)
	if stats.Storage.Partitions != 1 || stats.Storage.SealSeq != 1 ||
		stats.Storage.SealedRecords != 3 || stats.Storage.Seals != 1 {
		t.Fatalf("storage stats after seal = %+v", stats.Storage)
	}

	// Two more records stay in the WAL head past the seal.
	resp, body = postJSON(t, client, ts.URL+"/v1/ingest", ingestBody(ids, 2, 100, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	if st := get(ts.URL).WAL; st.RecordsSinceSnap != 2 {
		t.Fatalf("records_since_snapshot = %d after head ingest, want 2", st.RecordsSinceSnap)
	}

	// Capture an answer, then restart from disk.
	queryBody := map[string]any{"kind": "topk", "k": 3, "te": 200}
	_, before := postJSON(t, client, ts.URL+"/v2/query", queryBody)
	ts.Close()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, table2, err := parts.Open(parts.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store2.Close() })
	if table2.Len() != 5 {
		t.Fatalf("recovered %d records, want 5", table2.Len())
	}
	// Restart work: the sealed partition is mapped, not decoded; only the
	// two head records replay.
	ps := store2.Stats()
	if ps.Partitions != 1 || ps.MaterializedRecords != 0 || ps.WAL.ReplayedRecords != 2 {
		t.Fatalf("recovery stats = %+v, want 1 mapped partition, 0 decoded, 2 replayed", ps)
	}
	sys2, err := tkplq.NewSystem(fig.Space, table2, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys2.SetPersister(store2)
	_, ts2 := newTestServer(t, sys2, Config{Store: store2})
	stats = get(ts2.URL)
	if stats.Storage == nil || stats.Storage.Partitions != 1 || stats.WAL.ReplayedRecords != 2 {
		t.Fatalf("restarted stats = storage %+v wal %+v", stats.Storage, stats.WAL)
	}
	_, after := postJSON(t, ts2.Client(), ts2.URL+"/v2/query", queryBody)

	var b, a QueryResponse
	if err := json.Unmarshal(before, &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("restart changed result count: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range b.Results {
		if a.Results[i] != b.Results[i] {
			t.Errorf("restart changed rank %d: %+v vs %+v", i, a.Results[i], b.Results[i])
		}
	}
}
