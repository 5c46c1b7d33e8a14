package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"tkplq"
)

// figure1Server serves the paper's Figure 1 space over the first records of
// its Table 2 (three objects, timestamps 1 to 8).
func figure1Server(tb testing.TB) *Server {
	tb.Helper()
	fig := tkplq.PaperExampleSpace()
	p := fig.PLocs
	table := tkplq.NewTable()
	table.Append(
		tkplq.Record{OID: 1, T: 1, Samples: tkplq.SampleSet{{Loc: p[3], Prob: 1}}},
		tkplq.Record{OID: 2, T: 1, Samples: tkplq.SampleSet{{Loc: p[0], Prob: 0.5}, {Loc: p[1], Prob: 0.5}}},
		tkplq.Record{OID: 3, T: 2, Samples: tkplq.SampleSet{{Loc: p[1], Prob: 0.6}, {Loc: p[2], Prob: 0.4}}},
		tkplq.Record{OID: 1, T: 3, Samples: tkplq.SampleSet{{Loc: p[8], Prob: 1}}},
		tkplq.Record{OID: 2, T: 5, Samples: tkplq.SampleSet{{Loc: p[4], Prob: 0.3}, {Loc: p[5], Prob: 0.6}, {Loc: p[7], Prob: 0.1}}},
		tkplq.Record{OID: 3, T: 8, Samples: tkplq.SampleSet{{Loc: p[2], Prob: 1}}},
	)
	sys, err := tkplq.NewSystem(fig.Space, table, tkplq.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := New(Config{System: sys, Logf: func(string, ...any) {}})
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// FuzzQueryRequest feeds arbitrary bodies to POST /v2/query over a Figure 1
// table. The handler must never panic, and answers 200 or a 400 carrying the
// JSON error envelope. Every query of a body it answers converts (toQuery) to
// S-location ids in range, te ≥ ts and a workers value from 0 to GOMAXPROCS.
func FuzzQueryRequest(f *testing.F) {
	for _, seed := range []string{
		`{"kind":"topk","k":3,"te":0}`,
		`{"kind":"heatmap"}`,
		`{"slocs":[1,1,2],"te":8}`,
		`{"workers":-1,"te":8}`,
		`{"workers":1048576,"te":8}`,
		`{"ts":5,"te":2}`,
		`[{"kind":"flow","slocs":[2],"te":8},{"kind":"presence","slocs":[5],"oid":2,"workers":1}]`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	srv := figure1Server(f)
	h := srv.Handler()
	numSLocs := srv.sys.Space().NumSLocations()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("200 with a body that is not JSON: %q", rec.Body)
			}
		case http.StatusBadRequest:
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
				t.Fatalf("400 without the error envelope: %q", rec.Body)
			}
			return
		default:
			t.Fatalf("status %d: %q", rec.Code, rec.Body)
		}
		// The body was answered: decode it as the handler does and check
		// what each of its queries converts to.
		reqs := make([]QueryV2, 1)
		var err error
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '[' {
			err = strictUnmarshal(body, &reqs)
		} else {
			err = strictUnmarshal(body, &reqs[0])
		}
		if err != nil {
			t.Fatalf("answered a body it cannot decode: %v", err)
		}
		end := tkplq.Time(-1)
		for i, req := range reqs {
			q, _, err := srv.toQuery(context.Background(), req, &end)
			if err != nil {
				t.Fatalf("query %d was answered but does not convert: %v", i, err)
			}
			for _, s := range q.SLocs {
				if s < 0 || int(s) >= numSLocs {
					t.Fatalf("query %d was answered with S-location %d (space has %d)", i, s, numSLocs)
				}
			}
			if q.Te < q.Ts {
				t.Fatalf("query %d was answered over te %d < ts %d", i, q.Te, q.Ts)
			}
			if q.Workers < 0 || q.Workers > runtime.GOMAXPROCS(0) {
				t.Fatalf("query %d was answered with workers %d (GOMAXPROCS %d)", i, q.Workers, runtime.GOMAXPROCS(0))
			}
		}
	})
}

// TestQueryWorkersBound: /v2/query refuses workers below 0 or above
// GOMAXPROCS with a 400 naming the field and the bound, standalone and
// through a router, before anything is evaluated. The tables are empty, so
// no value could start a goroutine even if it were evaluated, and the
// router's shards must see none of the refused queries. workers 1 is
// answered.
func TestQueryWorkersBound(t *testing.T) {
	fig := tkplq.PaperExampleSpace()
	sys, err := tkplq.NewSystem(fig.Space, tkplq.NewTable(), tkplq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, standalone := newTestServer(t, sys, Config{})
	c := startCluster(t, fig.Space, tkplq.NewTable(), 2)
	var shardCalls atomic.Int64
	for _, slot := range c.slots {
		h := slot.h
		slot.set(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v2/") {
				shardCalls.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
	}
	bound := fmt.Sprintf("to %d (GOMAXPROCS)", runtime.GOMAXPROCS(0))
	for _, target := range []struct{ name, url string }{{"standalone", standalone.URL}, {"routed", c.routerTS.URL}} {
		for _, body := range []any{
			map[string]any{"k": 3, "te": 8, "workers": 1 << 20},
			map[string]any{"k": 3, "te": 8, "workers": -1},
			[]map[string]any{{"k": 3, "te": 8}, {"k": 3, "te": 8, "workers": 1 << 20}},
		} {
			resp, out := postJSON(t, standalone.Client(), target.url+"/v2/query", body)
			var env struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(out, &env); err != nil || resp.StatusCode != http.StatusBadRequest ||
				!strings.Contains(env.Error, "workers") || !strings.Contains(env.Error, bound) {
				t.Errorf("%s: %v got %d %s, want 400 naming workers and %q", target.name, body, resp.StatusCode, out, bound)
			}
		}
		if n := shardCalls.Load(); n != 0 {
			t.Errorf("%s: the shards were called %d times for refused queries", target.name, n)
		}
		resp, out := postJSON(t, standalone.Client(), target.url+"/v2/query", map[string]any{"k": 3, "te": 8, "workers": 1})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: workers 1 got %d %s, want 200", target.name, resp.StatusCode, out)
		}
	}
}
