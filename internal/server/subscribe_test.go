package server

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"tkplq"
)

// sseEvent is one parsed Server-Sent Events frame.
type sseEvent struct {
	event string
	data  string
}

// readEvent reads the next non-comment SSE frame, failing the test after a
// timeout (the reader runs in a goroutine so a stuck stream cannot hang the
// suite).
func readEvent(t *testing.T, r *bufio.Reader) sseEvent {
	t.Helper()
	ch := make(chan sseEvent, 1)
	errc := make(chan error, 1)
	go func() {
		var ev sseEvent
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				errc <- err
				return
			}
			line = strings.TrimRight(line, "\r\n")
			switch {
			case strings.HasPrefix(line, ":"): // heartbeat comment
			case strings.HasPrefix(line, "event: "):
				ev.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case line == "":
				if ev.event != "" || ev.data != "" {
					ch <- ev
					return
				}
			}
		}
	}()
	select {
	case ev := <-ch:
		return ev
	case err := <-errc:
		t.Fatalf("reading SSE stream: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for SSE event")
	}
	return sseEvent{}
}

func ingestOne(t *testing.T, sys *tkplq.System, oid int64, ts int64, ploc tkplq.PLocID) {
	t.Helper()
	err := sys.Ingest([]tkplq.Record{{
		OID:     tkplq.ObjectID(oid),
		T:       tkplq.Time(ts),
		Samples: tkplq.SampleSet{{Loc: ploc, Prob: 1.0}},
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeSSE: a /v2/subscribe stream delivers the initial snapshot,
// then an update after an ingest that changes the ranking, with updates
// bit-identical in shape to the query surface.
func TestSubscribeSSE(t *testing.T) {
	sys, ids := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{SSEHeartbeat: 50 * time.Millisecond})

	resp, err := http.Get(ts.URL + "/v2/subscribe?window=600&k=3")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	r := bufio.NewReader(resp.Body)

	// Initial snapshot: empty table, all flows zero.
	ev := readEvent(t, r)
	if ev.event != "update" {
		t.Fatalf("first event = %q, want update", ev.event)
	}
	var snap UpdateJSON
	if err := json.Unmarshal([]byte(ev.data), &snap); err != nil {
		t.Fatalf("bad update JSON %q: %v", ev.data, err)
	}
	if len(snap.Results) != 3 {
		t.Fatalf("snapshot has %d results, want 3", len(snap.Results))
	}
	for _, re := range snap.Results {
		if re.Flow != 0 {
			t.Fatalf("snapshot flow for sloc %d = %v, want 0 on empty table", re.SLoc, re.Flow)
		}
	}

	// An object parked in p6 — which feeds exactly one S-location (r6) with
	// its full mass — must surface in the next pushed update.
	ingestOne(t, sys, 1, 10, ids.PLocs[5])
	ev = readEvent(t, r)
	var upd UpdateJSON
	if err := json.Unmarshal([]byte(ev.data), &upd); err != nil {
		t.Fatalf("bad update JSON %q: %v", ev.data, err)
	}
	if upd.Seq == snap.Seq {
		t.Fatalf("update seq %d did not advance past snapshot seq %d", upd.Seq, snap.Seq)
	}
	if upd.Results[0].SLoc != int(ids.SLocs[5]) || upd.Results[0].Flow != 1.0 {
		t.Fatalf("top result = %+v, want sloc %d with flow 1", upd.Results[0], ids.SLocs[5])
	}
	if upd.Records != 1 {
		t.Fatalf("update covers %d records, want 1", upd.Records)
	}

	// The stream's stats must be bit-identical to a one-shot query's view.
	one, err := sys.Do(context.Background(), tkplq.Query{
		Kind: tkplq.KindTopK, Algorithm: tkplq.BestFirst, K: 3,
		Ts: tkplq.Time(upd.Ts), Te: tkplq.Time(upd.Te), SLocs: sys.AllSLocations(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if one.Results[0].Flow != upd.Results[0].Flow {
		t.Fatalf("pushed flow %v != one-shot flow %v", upd.Results[0].Flow, one.Results[0].Flow)
	}
}

// TestSubscribeDisconnect: closing the client connection mid-stream tears
// the subscription down server-side — active count returns to zero and the
// coalesced monitor is released.
func TestSubscribeDisconnect(t *testing.T) {
	sys, ids := newPaperSystem(t)
	srv, ts := newTestServer(t, sys, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/subscribe?window=600", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	readEvent(t, r) // snapshot: the stream is live

	if n := srv.subsActive.Load(); n != 1 {
		t.Fatalf("active subscriptions = %d, want 1", n)
	}
	if ms := sys.MonitorStats(); len(ms) != 1 || ms[0].Subscribers != 1 {
		t.Fatalf("monitor stats = %+v, want one monitor with one subscriber", ms)
	}

	// Drop the client mid-stream; ingest keeps flowing and must not block on
	// the dead subscriber.
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for srv.subsActive.Load() != 0 || len(sys.MonitorStats()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscription not torn down: active=%d monitors=%d",
				srv.subsActive.Load(), len(sys.MonitorStats()))
		}
		time.Sleep(5 * time.Millisecond)
	}
	ingestOne(t, sys, 2, 20, ids.PLocs[0])
}

// TestSubscribeValidation: malformed subscriptions, and no_coalesce, are
// rejected with the JSON error envelope before the stream starts.
func TestSubscribeValidation(t *testing.T) {
	sys, _ := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	for _, tc := range []struct {
		name, url string
	}{
		{"missing window", "/v2/subscribe"},
		{"bad window", "/v2/subscribe?window=-5"},
		{"bad k", "/v2/subscribe?window=60&k=zero"},
		{"bad sloc", "/v2/subscribe?window=60&slocs=999"},
		{"no_coalesce", "/v2/subscribe?window=10&no_coalesce=true"}, // identical feeds always share a monitor
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || body["error"] == "" {
			t.Errorf("%s: status %d body %v, want 400 with error envelope", tc.name, resp.StatusCode, body)
		}
	}

	resp, err := http.Post(ts.URL+"/v2/subscribe?window=60", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d, want 405", resp.StatusCode)
	}
}

// TestStatsSubscriptionsSection: /v1/stats reports the subscription surface —
// live/lifetime counts, updates written, and the shared monitor — and two
// streams that differ only in algorithm= (a parameter the feed does not have,
// ignored like any unknown one) coalesce onto one monitor that evaluates an
// ingest once.
func TestStatsSubscriptionsSection(t *testing.T) {
	sys, ids := newPaperSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	open := func(algorithm string) (*http.Response, *bufio.Reader) {
		resp, err := http.Get(ts.URL + "/v2/subscribe?window=600&k=3&algorithm=" + algorithm)
		if err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(resp.Body)
		readEvent(t, r)
		return resp, r
	}
	respA, rA := open("bf")
	defer respA.Body.Close()
	respB, rB := open("nl")
	defer respB.Body.Close()

	ingestOne(t, sys, 1, 10, ids.PLocs[3])
	readEvent(t, rA)
	readEvent(t, rB)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	sub := stats.Subscriptions
	if sub.Active != 2 || sub.Total != 2 {
		t.Errorf("active/total = %d/%d, want 2/2", sub.Active, sub.Total)
	}
	if sub.UpdatesSent < 4 { // 2 snapshots + 2 pushed changes
		t.Errorf("updates_sent = %d, want >= 4", sub.UpdatesSent)
	}
	if len(sub.Monitors) != 1 {
		t.Fatalf("monitors = %+v, want exactly one (coalesced)", sub.Monitors)
	}
	m := sub.Monitors[0]
	if m.Subscribers != 2 || m.K != 3 || m.Window != 600 {
		t.Errorf("monitor = %+v, want 2 subscribers, k 3, window 600", m)
	}
	if m.Evals != 2 || m.Updates != 1 || m.Observed != 1 { // the build + the one ingest
		t.Errorf("monitor counters = %+v, want evals 2, updates 1 and observed 1", m)
	}
}
