package server

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"tkplq"
	"tkplq/internal/parts"
)

// ingestBody builds a /v1/ingest payload of n single-sample records for one
// object starting at t0, over the paper space's first P-location.
func ingestBody(ids *struct {
	PLocs [9]tkplq.PLocID
	SLocs [6]tkplq.SLocID
}, oid, t0, n int) map[string]any {
	recs := make([]map[string]any, n)
	for i := range recs {
		recs[i] = map[string]any{
			"oid": oid, "t": t0 + i,
			"samples": []map[string]any{
				{"ploc": int(ids.PLocs[i%len(ids.PLocs)]), "prob": 1.0},
			},
		}
	}
	return map[string]any{"records": recs}
}

// TestSnapshotEndpointAndDurableRestart drives the persistence surface over
// HTTP: on-demand seals, the wal stats section, the SnapshotEvery-triggered
// automatic seal, and a restart that recovers the ingested records and
// answers the same query identically.
func TestSnapshotEndpointAndDurableRestart(t *testing.T) {
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
	_, ts := newTestServer(t, sys, Config{Store: store, SnapshotEvery: 4})
	client := ts.Client()

	// On-demand seal of the (empty) head: succeeds and commits nothing — a
	// partition is never empty.
	resp, body := postJSON(t, client, ts.URL+"/v1/snapshot", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot = %d: %s", resp.StatusCode, body)
	}
	var snap SnapshotResponse
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SnapshotSeq != 0 || snap.Records != 0 {
		t.Fatalf("snapshot response = %+v", snap)
	}

	// Two records: below the auto-snapshot threshold.
	resp, body = postJSON(t, client, ts.URL+"/v1/ingest", ingestBody(ids, 1, 0, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	var stats StatsResponse
	get := func() StatsResponse {
		t.Helper()
		r, err := client.Get(ts.URL + "/v1/stats")
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
	stats = get()
	if stats.WAL == nil {
		t.Fatal("stats missing wal section with a store attached")
	}
	if stats.WAL.Frames != 1 || stats.WAL.RecordsSinceSnap != 2 || stats.WAL.SnapshotSeq != 0 {
		t.Fatalf("wal stats after first ingest = %+v", stats.WAL)
	}

	// Two more records cross SnapshotEvery=4: the automatic background seal
	// must commit partition 1.
	resp, body = postJSON(t, client, ts.URL+"/v1/ingest", ingestBody(ids, 2, 100, 2))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for get().WAL.SnapshotSeq < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("auto-snapshot never committed: %+v", get().WAL)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := get().WAL; st.RecordsSinceSnap != 0 {
		t.Fatalf("records_since_snapshot = %d after auto-snapshot", st.RecordsSinceSnap)
	}

	// Capture an answer, then restart: close everything, recover from disk.
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
	if table2.Len() != 4 {
		t.Fatalf("recovered %d records, want 4", table2.Len())
	}
	sys2, err := tkplq.NewSystem(fig.Space, table2, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys2.SetPersister(store2)
	_, ts2 := newTestServer(t, sys2, Config{Store: store2})
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

// TestSnapshotWithoutStore pins the degraded surface of an in-memory
// daemon: /v1/snapshot answers 501 with the JSON error envelope and
// /v1/stats carries no wal section.
func TestSnapshotWithoutStore(t *testing.T) {
	sys, _ := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{})
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/snapshot", map[string]any{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("snapshot without store = %d, want 501", resp.StatusCode)
	}
	var envelope struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" {
		t.Fatalf("not a JSON error envelope: %s (%v)", body, err)
	}
	r, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.WAL != nil {
		t.Fatalf("in-memory server reported wal stats: %+v", stats.WAL)
	}
}

// TestShutdownWaitsForAutoSeal: the auto-seal runs on its own goroutine and
// outlives the ingest request that triggered it. A caller that shuts the
// server down, closes the store and reopens the directory in the same
// process — every in-process restart — must find the seal either not started
// or fully committed, never landing a partition in a directory the new store
// has already scanned.
func TestShutdownWaitsForAutoSeal(t *testing.T) {
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
	const records = 5000 // enough that the seal is still writing when ingest returns
	srv, err := New(Config{
		System: sys, Store: store, SnapshotEvery: records, Addr: "127.0.0.1:0",
		Logf: func(string, ...any) {}, // the seal may log after a failed test returned
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()

	resp, body := postJSON(t, http.DefaultClient, "http://"+srv.Addr()+"/v1/ingest", ingestBody(ids, 1, 0, records))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	store2, table2, err := parts.Open(parts.Options{Dir: dir, Verify: parts.VerifyFull})
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	if table2.Len() != records {
		t.Fatalf("reopened %d records, want %d", table2.Len(), records)
	}
	// Let a seal that escaped Shutdown finish, so a torn set shows on disk.
	for deadline := time.Now().Add(30 * time.Second); len(srv.autoSeal) > 0; {
		if time.Now().After(deadline) {
			t.Fatal("auto-seal never finished")
		}
		time.Sleep(time.Millisecond)
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "part-*.tkp"))
	if err != nil {
		t.Fatal(err)
	}
	if mapped := store2.Stats().Partitions; mapped != len(onDisk) {
		t.Fatalf("reopened store mapped %d partitions but the directory now holds %v: a seal landed after the reopen", mapped, onDisk)
	}
	if srv.snapshots.Load() != 1 || len(onDisk) != 1 {
		t.Fatalf("auto-seal committed %d times into %v, want the one partition", srv.snapshots.Load(), onDisk)
	}
}
