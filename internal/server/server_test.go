package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tkplq"
)

// newSynSystem generates the laptop-scale synthetic dataset once and returns
// a fresh System over it. Workers:1 keeps evaluations slow and deterministic,
// which the coalescing and timeout tests rely on.
var (
	synOnce  sync.Once
	synB     *tkplq.Building
	synTable *tkplq.Table
	synErr   error
)

func newSynSystem(t *testing.T) *tkplq.System {
	t.Helper()
	synOnce.Do(func() {
		synB, synErr = tkplq.GenerateBuilding(tkplq.DefaultBuildingConfig())
		if synErr != nil {
			return
		}
		mcfg := tkplq.DefaultMovementConfig()
		mcfg.Objects = 24
		mcfg.Duration = 1800
		mcfg.MinDwell, mcfg.MaxDwell = 60, 240
		mcfg.MinLifespan, mcfg.MaxLifespan = 900, 1800
		var trajs []tkplq.Trajectory
		trajs, synErr = tkplq.SimulateMovement(synB, mcfg)
		if synErr != nil {
			return
		}
		synTable, synErr = tkplq.GenerateIUPT(synB, trajs, tkplq.DefaultPositioningConfig())
	})
	if synErr != nil {
		t.Fatal(synErr)
	}
	sys, err := tkplq.NewSystem(synB.Space, synTable, tkplq.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// newPaperSystem returns a small hand-built system over the paper's Figure 1
// example, for ingest tests that need full control of the table.
func newPaperSystem(t *testing.T) (*tkplq.System, *struct {
	PLocs [9]tkplq.PLocID
	SLocs [6]tkplq.SLocID
}) {
	t.Helper()
	fig := tkplq.PaperExampleSpace()
	sys, err := tkplq.NewSystem(fig.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids := &struct {
		PLocs [9]tkplq.PLocID
		SLocs [6]tkplq.SLocID
	}{PLocs: fig.PLocs, SLocs: fig.SLocs}
	return sys, ids
}

func newTestServer(t *testing.T, sys *tkplq.System, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.System = sys
	cfg.Logf = t.Logf
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, client *http.Client, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// do evaluates q through the library, the reference the HTTP answers are
// compared with.
func do(t *testing.T, sys *tkplq.System, q tkplq.Query) *tkplq.Response {
	t.Helper()
	resp, err := sys.Do(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHealthz(t *testing.T) {
	sys, _ := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200", resp.StatusCode)
	}
	var body struct {
		Status  string `json:"status"`
		Records int    `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q, want ok", body.Status)
	}
}

func TestQueryTopK(t *testing.T) {
	sys := newSynSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	// Sequential reference through the library.
	want := do(t, sys, tkplq.Query{Algorithm: tkplq.BestFirst, K: 5, Te: 1800, SLocs: sys.AllSLocations()}).Results

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v2/query", QueryRequest{
		Kind: "topk", Algorithm: "bf", K: 5, Ts: 0, Te: 1800,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d: %s", resp.StatusCode, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(want))
	}
	for i, r := range out.Results {
		if r.SLoc != int(want[i].SLoc) || math.Float64bits(r.Flow) != math.Float64bits(want[i].Flow) {
			t.Errorf("result %d = %+v, want {%d %v}", i, r, want[i].SLoc, want[i].Flow)
		}
		if r.Name == "" {
			t.Errorf("result %d has empty name", i)
		}
		if i > 0 && r.Flow > out.Results[i-1].Flow {
			t.Errorf("ranking not descending at %d: %v > %v", i, r.Flow, out.Results[i-1].Flow)
		}
	}
	if out.Stats.ObjectsTotal == 0 {
		t.Error("stats.objects_total = 0, expected objects in the window")
	}
	if out.Te != 1800 {
		t.Errorf("te = %d, want 1800", out.Te)
	}
}

func TestQueryDefaultsAndKinds(t *testing.T) {
	sys := newSynSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	// Empty body object: kind topk, algorithm bf, k 10, window to table end.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v2/query", map[string]any{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default query status = %d: %s", resp.StatusCode, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != "topk" || out.Algorithm != "bf" || out.K != 10 {
		t.Errorf("defaults = %s/%s/k=%d, want topk/bf/k=10", out.Kind, out.Algorithm, out.K)
	}
	if out.Te == 0 {
		t.Error("te not defaulted to table span end")
	}

	// Density ranks by flow per m².
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v2/query", QueryRequest{Kind: "density", K: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("density status = %d: %s", resp.StatusCode, body)
	}

	// Flow needs exactly one S-location.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v2/query", QueryRequest{Kind: "flow", SLocs: []int{0}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flow status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].SLoc != 0 {
		t.Errorf("flow results = %+v, want single entry for sloc 0", out.Results)
	}
}

func TestQueryValidation(t *testing.T) {
	sys := newSynSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	cases := []struct {
		name string
		body any
	}{
		{"bad algorithm", QueryRequest{Algorithm: "quantum"}},
		{"bad kind", QueryRequest{Kind: "heatmap"}},
		{"inverted window", QueryRequest{Ts: 100, Te: 50}},
		{"flow without slocs", QueryRequest{Kind: "flow"}},
		{"flow with two slocs", QueryRequest{Kind: "flow", SLocs: []int{0, 1}}},
		{"unknown sloc", QueryRequest{SLocs: []int{99999}}},
		{"negative sloc", QueryRequest{SLocs: []int{-1}}},
		{"flow with unknown sloc", QueryRequest{Kind: "flow", SLocs: []int{99999}}},
		{"density with unknown sloc", QueryRequest{Kind: "density", SLocs: []int{99999}}},
		{"negative k", QueryRequest{K: -3}},
		{"unknown field", map[string]any{"kay": 5}},
		{"malformed json", nil}, // replaced below
	}
	for _, tc := range cases {
		var resp *http.Response
		var body []byte
		if tc.name == "malformed json" {
			r, err := ts.Client().Post(ts.URL+"/v2/query", "application/json", strings.NewReader("{nope"))
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
			resp = r
		} else {
			resp, body = postJSON(t, ts.Client(), ts.URL+"/v2/query", tc.body)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", tc.name, resp.StatusCode, body)
		}
	}

	// Wrong method.
	resp, err := ts.Client().Get(ts.URL + "/v2/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/query status = %d, want 405", resp.StatusCode)
	}
}

func TestIngestAndQuery(t *testing.T) {
	sys, ids := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{})
	p := ids.PLocs

	batch := IngestRequest{Records: []RecordJSON{
		{OID: 1, T: 1, Samples: []SampleJSON{{PLoc: int(p[3]), Prob: 1.0}}},
		{OID: 1, T: 3, Samples: []SampleJSON{{PLoc: int(p[8]), Prob: 1.0}}},
		{OID: 1, T: 4, Samples: []SampleJSON{{PLoc: int(p[7]), Prob: 1.0}}},
		{OID: 2, T: 1, Samples: []SampleJSON{{PLoc: int(p[0]), Prob: 0.5}, {PLoc: int(p[1]), Prob: 0.5}}},
		{OID: 2, T: 3, Samples: []SampleJSON{{PLoc: int(p[1]), Prob: 0.7}, {PLoc: int(p[3]), Prob: 0.3}}},
	}}
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/ingest", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Ingested != 5 || ir.Records != 5 {
		t.Errorf("ingest response = %+v, want 5/5", ir)
	}

	// The ingested records are immediately queryable.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v2/query", QueryRequest{
		K: 1, Ts: 1, Te: 8, SLocs: []int{int(ids.SLocs[0]), int(ids.SLocs[5])},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-ingest query status = %d: %s", resp.StatusCode, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || out.Results[0].SLoc != int(ids.SLocs[5]) {
		t.Errorf("post-ingest top-1 = %+v, want r6 (%d)", out.Results, ids.SLocs[5])
	}

	// Invalid batches are rejected atomically.
	for name, bad := range map[string]IngestRequest{
		"empty batch":  {},
		"bad prob sum": {Records: []RecordJSON{{OID: 9, T: 2, Samples: []SampleJSON{{PLoc: int(p[0]), Prob: 0.4}}}}},
		"unknown ploc": {Records: []RecordJSON{{OID: 9, T: 2, Samples: []SampleJSON{{PLoc: 999, Prob: 1.0}}}}},
		"negative t":   {Records: []RecordJSON{{OID: 9, T: -2, Samples: []SampleJSON{{PLoc: int(p[0]), Prob: 1.0}}}}},
	} {
		resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/ingest", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
	if got := sys.Table().Len(); got != 5 {
		t.Errorf("table has %d records after rejected batches, want 5", got)
	}
}

// TestRequestBodyLimit: a request body of exactly MaxBodyBytes is read, and
// one byte more is refused with 400 naming the limit — on /v1/ingest,
// /v2/partial and /v2/query, which all read through readBody. The padding
// leads, so a handler must read every byte to reach the JSON. Anything but
// white space after the JSON value is refused with 400 too, never silently
// dropped.
func TestRequestBodyLimit(t *testing.T) {
	sys, ids := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{})
	ingest, err := json.Marshal(IngestRequest{Records: []RecordJSON{{OID: 1, T: 1, Samples: []SampleJSON{{PLoc: int(ids.PLocs[3]), Prob: 1}}}}})
	if err != nil {
		t.Fatal(err)
	}
	query, err := json.Marshal(QueryRequest{K: 1, Te: 8})
	if err != nil {
		t.Fatal(err)
	}
	refusal := fmt.Sprintf("body exceeds %d bytes", MaxBodyBytes)
	for _, c := range []struct {
		path string
		json []byte
	}{{"/v1/ingest", ingest}, {"/v2/partial", query}, {"/v2/query", query}} {
		for _, size := range []int{MaxBodyBytes, MaxBodyBytes + 1} {
			body := append(bytes.Repeat([]byte(" "), size-len(c.json)), c.json...)
			resp, err := ts.Client().Post(ts.URL+c.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			_, err = out.ReadFrom(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case size == MaxBodyBytes && resp.StatusCode != http.StatusOK:
				t.Errorf("%s with a %d-byte body: status %d (%.200s), want 200", c.path, size, resp.StatusCode, out.Bytes())
			case size > MaxBodyBytes && (resp.StatusCode != http.StatusBadRequest || !strings.Contains(out.String(), refusal)):
				t.Errorf("%s with a %d-byte body: status %d (%.200s), want 400 %q", c.path, size, resp.StatusCode, out.Bytes(), refusal)
			}
		}
		for _, trailer := range []string{` {"garbage":true}`, `]`} {
			body := append(bytes.Clone(c.json), trailer...)
			resp, err := ts.Client().Post(ts.URL+c.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s with %q after the JSON value: status %d, want 400", c.path, trailer, resp.StatusCode)
			}
		}
	}
}

func TestStatsEndpoint(t *testing.T) {
	sys, ids := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	postJSON(t, ts.Client(), ts.URL+"/v1/ingest", IngestRequest{Records: []RecordJSON{
		{OID: 1, T: 1, Samples: []SampleJSON{{PLoc: int(ids.PLocs[3]), Prob: 1.0}}},
	}})
	postJSON(t, ts.Client(), ts.URL+"/v2/query", QueryRequest{K: 2, Ts: 0, Te: 5})

	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status = %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Server.Queries != 1 || st.Server.IngestRequests != 1 || st.Server.RecordsIngested != 1 {
		t.Errorf("server counters = %+v, want 1 query / 1 ingest / 1 record", st.Server)
	}
	if st.Table.Records != 1 || st.Table.Objects != 1 {
		t.Errorf("table stats = %+v, want 1 record / 1 object", st.Table)
	}
	if st.Space.SLocations != 6 {
		t.Errorf("space slocations = %d, want 6", st.Space.SLocations)
	}
	if st.Engine.Flights == 0 {
		t.Error("engine flights = 0, the query above should have counted")
	}
}

// TestConcurrentQueryCoalescing fires 64 concurrent identical /v2/query
// requests and checks that every response is bit-identical to the sequential
// path and that the engine coalesced concurrent evaluations. The Naive
// algorithm with Workers:1 keeps each evaluation slow (and cache-free), so in
// practice 63 of the 64 join the leader's flight; the deterministic ≥63
// guarantee is asserted in internal/core's hook-based tests.
func TestConcurrentQueryCoalescing(t *testing.T) {
	const callers = 64

	req := QueryRequest{Kind: "topk", Algorithm: "naive", K: 5, Ts: 0, Te: 1800}

	attempt := func() (coalesced int64, err error) {
		sys := newSynSystem(t)
		_, ts := newTestServer(t, sys, Config{})
		client := ts.Client()
		client.Transport.(*http.Transport).MaxIdleConnsPerHost = callers

		want := do(t, sys, tkplq.Query{Algorithm: tkplq.Naive, K: 5, Te: 1800, SLocs: sys.AllSLocations()}).Results
		wantJSON := make([]ResultJSON, len(want))
		for i, r := range want {
			wantJSON[i] = ResultJSON{SLoc: int(r.SLoc), Name: sys.Space().SLocation(r.SLoc).Name, Flow: r.Flow}
		}

		var wg sync.WaitGroup
		responses := make([]QueryResponse, callers)
		errs := make([]error, callers)
		start := make(chan struct{})
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				resp, body := postJSON(t, client, ts.URL+"/v2/query", req)
				if resp.StatusCode != http.StatusOK {
					errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
					return
				}
				errs[i] = json.Unmarshal(body, &responses[i])
			}(i)
		}
		close(start)
		wg.Wait()

		for i := 0; i < callers; i++ {
			if errs[i] != nil {
				return 0, fmt.Errorf("caller %d: %w", i, errs[i])
			}
			if len(responses[i].Results) != len(wantJSON) {
				return 0, fmt.Errorf("caller %d: %d results, want %d", i, len(responses[i].Results), len(wantJSON))
			}
			for j, r := range responses[i].Results {
				w := wantJSON[j]
				if r.SLoc != w.SLoc || math.Float64bits(r.Flow) != math.Float64bits(w.Flow) {
					return 0, fmt.Errorf("caller %d result %d = %+v, want %+v (not bit-identical to sequential)", i, j, r, w)
				}
			}
			coalesced += responses[i].Stats.Coalesced
		}
		return coalesced, nil
	}

	// Bit-identical results are required on every attempt; the coalescing
	// *count* depends on scheduling, so allow a few rounds to observe a
	// decisive majority.
	for round := 1; ; round++ {
		coalesced, err := attempt()
		if err != nil {
			t.Fatal(err)
		}
		if coalesced >= callers/2 {
			t.Logf("round %d: %d/%d requests coalesced", round, coalesced, callers)
			return
		}
		if round == 5 {
			t.Fatalf("after %d rounds, best coalesced count %d < %d", round, coalesced, callers/2)
		}
		t.Logf("round %d: only %d coalesced, retrying", round, coalesced)
	}
}

func TestRequestTimeout(t *testing.T) {
	sys := newSynSystem(t)
	_, ts := newTestServer(t, sys, Config{RequestTimeout: time.Millisecond})

	// A Naive full-query evaluation takes well over a millisecond on this
	// dataset; the timeout handler must cut it off with a 503 JSON body.
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v2/query", QueryRequest{
		Kind: "topk", Algorithm: "naive", K: 5, Ts: 0, Te: 1800,
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", resp.StatusCode, body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
		t.Errorf("timeout body %q is not the JSON error payload", body)
	}
}

// TestQueryV2SingleForm: the endpoint answers a single query object with a
// single response object, bit-identical to the library path.
func TestQueryV2SingleForm(t *testing.T) {
	sys := newSynSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	want := do(t, sys, tkplq.Query{Algorithm: tkplq.BestFirst, K: 5, Te: 1800, SLocs: sys.AllSLocations()}).Results
	resp, body := postJSON(t, ts.Client(), ts.URL+"/v2/query", map[string]any{
		"kind": "topk", "algorithm": "bf", "k": 5, "ts": 0, "te": 1800,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 single status = %d: %s", resp.StatusCode, body)
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(want) {
		t.Fatalf("got %d results, want %d", len(out.Results), len(want))
	}
	for i, r := range out.Results {
		if r.SLoc != int(want[i].SLoc) || math.Float64bits(r.Flow) != math.Float64bits(want[i].Flow) {
			t.Errorf("result %d = %+v, want {%d %v}", i, r, want[i].SLoc, want[i].Flow)
		}
	}

	// The presence kind takes its object from "oid".
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v2/query", map[string]any{
		"kind": "presence", "slocs": []int{0}, "oid": 1, "ts": 0, "te": 1800,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 presence status = %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	wantP := do(t, sys, tkplq.Query{Kind: tkplq.KindPresence, SLocs: []tkplq.SLocID{0}, OID: 1, Te: 1800}).Flow
	if len(out.Results) != 1 || math.Float64bits(out.Results[0].Flow) != math.Float64bits(wantP) {
		t.Errorf("presence = %+v, want single entry %v", out.Results, wantP)
	}
}

// TestQueryV2BatchSharesWork: the array form evaluates same-window queries
// as one shared group — responses are bit-identical to sequential library
// calls and report the group size in stats.shared_batch.
func TestQueryV2BatchSharesWork(t *testing.T) {
	sys := newSynSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	wantBF := do(t, sys, tkplq.Query{Algorithm: tkplq.BestFirst, K: 3, Te: 1800, SLocs: sys.AllSLocations()}).Results
	wantFlow := do(t, sys, tkplq.Query{Kind: tkplq.KindFlow, SLocs: []tkplq.SLocID{0}, Te: 1800}).Flow

	resp, body := postJSON(t, ts.Client(), ts.URL+"/v2/query", []map[string]any{
		{"kind": "topk", "algorithm": "bf", "k": 3, "ts": 0, "te": 1800},
		{"kind": "topk", "algorithm": "nl", "k": 5, "ts": 0, "te": 1800},
		{"kind": "flow", "slocs": []int{0}, "ts": 0, "te": 1800},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 batch status = %d: %s", resp.StatusCode, body)
	}
	var outs []QueryResponse
	if err := json.Unmarshal(body, &outs); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("batch returned %d responses, want 3", len(outs))
	}
	for i, out := range outs {
		if out.Stats.SharedBatch != 3 {
			t.Errorf("response %d: shared_batch = %d, want 3", i, out.Stats.SharedBatch)
		}
	}
	for i, r := range outs[0].Results {
		if r.SLoc != int(wantBF[i].SLoc) || math.Float64bits(r.Flow) != math.Float64bits(wantBF[i].Flow) {
			t.Errorf("batch topk result %d = %+v, want {%d %v}", i, r, wantBF[i].SLoc, wantBF[i].Flow)
		}
	}
	if math.Float64bits(outs[2].Results[0].Flow) != math.Float64bits(wantFlow) {
		t.Errorf("batch flow = %v, want %v", outs[2].Results[0].Flow, wantFlow)
	}

	// A bad query anywhere fails the whole batch, naming its index.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v2/query", []map[string]any{
		{"kind": "topk", "k": 3},
		{"kind": "flow"}, // flow needs exactly one S-location
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status = %d (%s), want 400", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "batch query 1") {
		t.Errorf("bad batch body %q does not name the offending index", body)
	}
}

// TestErrorEnvelopes: every error path — unknown endpoint, wrong method,
// typo'd field, structured ingest rejection — answers with the JSON
// {"error": ...} envelope, never bare text or HTML.
func TestErrorEnvelopes(t *testing.T) {
	sys, ids := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	assertEnvelope := func(label string, resp *http.Response, body []byte, wantCode int) {
		t.Helper()
		if resp.StatusCode != wantCode {
			t.Errorf("%s: status = %d, want %d", label, resp.StatusCode, wantCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q, want application/json", label, ct)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %q is not a JSON error envelope", label, body)
		}
	}

	get := func(path string) (*http.Response, []byte) {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	resp, body := get("/nope")
	assertEnvelope("404", resp, body, http.StatusNotFound)
	resp, body = get("/v2/query")
	assertEnvelope("405", resp, body, http.StatusMethodNotAllowed)
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("405 Allow = %q, want POST", allow)
	}
	// The removed v1 query endpoint is an ordinary unknown path.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/query", map[string]any{"kind": "topk", "k": 5})
	assertEnvelope("removed /v1/query", resp, body, http.StatusNotFound)
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v2/query", map[string]any{"kay": 5})
	assertEnvelope("unknown field", resp, body, http.StatusBadRequest)

	// Structured ingest rejection: the envelope carries the failing record's
	// index and object.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/ingest", IngestRequest{Records: []RecordJSON{
		{OID: 7, T: 1, Samples: []SampleJSON{{PLoc: int(ids.PLocs[0]), Prob: 1.0}}},
		{OID: 8, T: -2, Samples: []SampleJSON{{PLoc: int(ids.PLocs[0]), Prob: 1.0}}},
	}})
	assertEnvelope("ingest", resp, body, http.StatusBadRequest)
	var ie IngestErrorResponse
	if err := json.Unmarshal(body, &ie); err != nil {
		t.Fatal(err)
	}
	if ie.Index != 1 || ie.OID != 8 || ie.T != -2 {
		t.Errorf("ingest rejection = %+v, want index 1 / oid 8 / t -2", ie)
	}

	// A duplicate (object, timestamp) pair inside one batch is rejected too.
	resp, body = postJSON(t, ts.Client(), ts.URL+"/v1/ingest", IngestRequest{Records: []RecordJSON{
		{OID: 7, T: 5, Samples: []SampleJSON{{PLoc: int(ids.PLocs[0]), Prob: 1.0}}},
		{OID: 7, T: 5, Samples: []SampleJSON{{PLoc: int(ids.PLocs[1]), Prob: 1.0}}},
	}})
	assertEnvelope("duplicate timestamp", resp, body, http.StatusBadRequest)
	if err := json.Unmarshal(body, &ie); err != nil {
		t.Fatal(err)
	}
	if ie.Index != 1 || ie.OID != 7 {
		t.Errorf("duplicate rejection = %+v, want index 1 / oid 7", ie)
	}
	if got := sys.Table().Len(); got != 0 {
		t.Errorf("table has %d records after rejected batches, want 0", got)
	}
}

// TestClientDisconnectCancelsEvaluation: when the client abandons a request
// mid-evaluation, the request context cancels the engine work — observable
// as the server's canceled_queries counter advancing.
func TestClientDisconnectCancelsEvaluation(t *testing.T) {
	sys := newSynSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	reqBody, err := json.Marshal(QueryRequest{Kind: "topk", Algorithm: "naive", K: 5, Ts: 0, Te: 1800})
	if err != nil {
		t.Fatal(err)
	}
	canceledCount := func() int64 {
		resp, err := ts.Client().Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.Server.CanceledQueries
	}

	// The evaluation must be in flight when the client walks away, so the
	// cancel delay is a race against the query's runtime; retry with an
	// increasing head start until the counter proves a disconnect canceled
	// an evaluation.
	for attempt := 1; attempt <= 20; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v2/query", bytes.NewReader(reqBody))
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
		}()
		time.Sleep(time.Duration(attempt) * time.Millisecond)
		cancel()
		<-done
		// The handler observes the cancellation asynchronously; give the
		// counter a moment before the next attempt.
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if canceledCount() >= 1 {
				return // the disconnect reached the engine
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Fatalf("canceled_queries still %d after all attempts; disconnects never canceled an evaluation", canceledCount())
}

func TestGracefulShutdown(t *testing.T) {
	sys, _ := newPaperSystem(t)
	srv, err := New(Config{System: sys, Addr: "127.0.0.1:0", Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over real listener = %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}
