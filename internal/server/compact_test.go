package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"tkplq"
	"tkplq/internal/parts"
)

// TestCompactEndpoint drives POST /v1/compact over HTTP: sealing several
// small partitions, compacting them into one range partition, and asserting
// the storage stats section tracks compactions, the window summary cache,
// and an unchanged query answer.
func TestCompactEndpoint(t *testing.T) {
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
	t.Cleanup(func() { store.Close() })
	sys, err := tkplq.NewSystem(fig.Space, recovered, tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sys.SetPersister(store)
	_, ts := newTestServer(t, sys, Config{Store: store})
	client := ts.Client()

	stats := func() StatsResponse {
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

	// Four ingest+seal rounds: four small partitions.
	for i := 0; i < 4; i++ {
		resp, body := postJSON(t, client, ts.URL+"/v1/ingest", ingestBody(ids, i+1, i*100, 3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d = %d: %s", i, resp.StatusCode, body)
		}
		resp, body = postJSON(t, client, ts.URL+"/v1/snapshot", map[string]any{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	if st := stats().Storage; st == nil || st.Partitions != 4 {
		t.Fatalf("storage stats before compact = %+v, want 4 partitions", st)
	}

	queryBody := map[string]any{"kind": "topk", "k": 3, "te": 500}
	_, before := postJSON(t, client, ts.URL+"/v2/query", queryBody)

	resp, body := postJSON(t, client, ts.URL+"/v1/compact", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact = %d: %s", resp.StatusCode, body)
	}
	var cr CompactResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Inputs != 4 || cr.Records != 12 || cr.SeqLo != 1 || cr.SeqHi != 4 {
		t.Fatalf("compact response = %+v, want 4 inputs / 12 records / seq [1,4]", cr)
	}

	st := stats().Storage
	if st.Partitions != 1 || st.Compactions != 1 || st.CompactedPartitions != 4 {
		t.Fatalf("storage stats after compact = %+v, want 1 partition, 1 compaction, 4 compacted", st)
	}

	// A second compact finds nothing: one partition is below every policy.
	resp, body = postJSON(t, client, ts.URL+"/v1/compact", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second compact = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Inputs != 0 {
		t.Fatalf("second compact merged %d inputs, want a no-op", cr.Inputs)
	}

	// The answer is unchanged, and the repeated sealed window lands in the
	// window summary cache without rematerializing sealed records.
	_, after := postJSON(t, client, ts.URL+"/v2/query", queryBody)
	var b, a QueryResponse
	if err := json.Unmarshal(before, &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(after, &a); err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("compaction changed result count: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range b.Results {
		if a.Results[i] != b.Results[i] {
			t.Errorf("compaction changed rank %d: %+v vs %+v", i, a.Results[i], b.Results[i])
		}
	}
	matBefore := stats().Storage.MaterializedRecords
	_, again := postJSON(t, client, ts.URL+"/v2/query", queryBody)
	st = stats().Storage
	if st.MaterializedRecords != matBefore {
		t.Fatalf("repeated sealed window rematerialized %d records, want 0", st.MaterializedRecords-matBefore)
	}
	if st.WindowHits == 0 {
		t.Fatal("storage stats report zero window-cache hits after a repeated sealed window")
	}
	var g QueryResponse
	if err := json.Unmarshal(again, &g); err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if g.Results[i] != a.Results[i] {
			t.Errorf("window-cache hit changed rank %d: %+v vs %+v", i, g.Results[i], a.Results[i])
		}
	}

	// GET is rejected; an in-memory server answers 501 and names the flag
	// that would make it durable.
	if r, err := client.Get(ts.URL + "/v1/compact"); err != nil {
		t.Fatal(err)
	} else {
		r.Body.Close()
		if r.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/compact = %d, want 405", r.StatusCode)
		}
	}
	memSys, err := tkplq.NewSystem(fig.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, memTS := newTestServer(t, memSys, Config{})
	resp, body = postJSON(t, memTS.Client(), memTS.URL+"/v1/compact", map[string]any{})
	if resp.StatusCode != http.StatusNotImplemented || !strings.Contains(string(body), "-data-dir") {
		t.Fatalf("compact without a store = %d: %s, want 501 naming -data-dir", resp.StatusCode, body)
	}
}
