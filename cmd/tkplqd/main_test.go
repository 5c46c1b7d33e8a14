package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"tkplq"
	"tkplq/internal/cluster"
	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing run's output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// TestDaemonEndToEnd boots the daemon on an ephemeral port against a small
// generated dataset, exercises the API over real HTTP, and shuts it down
// gracefully via context cancellation (the signal path minus the signal).
func TestDaemonEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-objects", "8", "-duration", "900", "-seed", "3",
		}, &out)
	}()

	// Wait for the announce line to learn the bound address.
	var addr string
	deadline := time.Now().Add(60 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited before listening: %v (output: %s)", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address (output: %s)", out.String())
		}
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	qresp, err := http.Post(base+"/v2/query", "application/json",
		strings.NewReader(`{"kind":"topk","algorithm":"bf","k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Results []struct {
			SLoc int     `json:"sloc"`
			Flow float64 `json:"flow"`
		} `json:"results"`
	}
	err = json.NewDecoder(qresp.Body).Decode(&body)
	qresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d", qresp.StatusCode)
	}
	if len(body.Results) == 0 {
		t.Fatal("query returned no results")
	}
	for i := 1; i < len(body.Results); i++ {
		if body.Results[i].Flow > body.Results[i-1].Flow {
			t.Errorf("ranking not descending at %d", i)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not shut down after cancellation")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("missing shutdown announcement in output: %s", out.String())
	}
}

// startDaemon boots run() in a goroutine and waits for the announce line,
// returning the base URL, the output buffer, and a stop function that
// cancels the context and waits for a clean exit.
func startDaemon(t *testing.T, args []string) (string, *syncBuffer, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, &out) }()

	var addr string
	deadline := time.Now().Add(60 * time.Second)
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-done:
			cancel()
			t.Fatalf("daemon exited before listening: %v (output: %s)", err, out.String())
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("daemon never announced its address (output: %s)", out.String())
		}
	}
	stop := func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("daemon exited with %v (output: %s)", err, out.String())
			}
		case <-time.After(30 * time.Second):
			t.Fatal("daemon did not shut down after cancellation")
		}
	}
	return "http://" + addr, &out, stop
}

// TestDaemonDurableRestart boots the daemon with -data-dir, ingests over
// HTTP, restarts it against the same directory, and checks that the second
// incarnation recovers the records and answers the same query identically.
func TestDaemonDurableRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-objects", "6", "-duration", "600", "-seed", "3",
		"-data-dir", dataDir, "-snapshot-every", "2",
	}

	base, out, stop := startDaemon(t, args)
	if !strings.Contains(out.String(), "bootstrap partition") {
		t.Fatalf("first boot did not announce the bootstrap partition: %s", out.String())
	}
	ingest := `{"records":[{"oid":9001,"t":700,"samples":[{"ploc":0,"prob":1.0}]},` +
		`{"oid":9001,"t":703,"samples":[{"ploc":1,"prob":0.5},{"ploc":2,"prob":0.5}]}]}`
	iresp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(ingest))
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", iresp.StatusCode)
	}
	query := func(base string) ([]byte, int) {
		t.Helper()
		resp, err := http.Post(base+"/v2/query", "application/json",
			strings.NewReader(`{"kind":"topk","algorithm":"bf","k":5,"te":800}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Results []struct {
				SLoc int     `json:"sloc"`
				Flow float64 `json:"flow"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		hresp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		var health struct {
			Records int `json:"records"`
		}
		if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
			t.Fatal(err)
		}
		return b, health.Records
	}
	before, recordsBefore := query(base)
	stop()

	base2, out2, stop2 := startDaemon(t, args)
	defer stop2()
	if !strings.Contains(out2.String(), "recovered") {
		t.Fatalf("second boot did not announce recovery: %s", out2.String())
	}
	after, recordsAfter := query(base2)
	if recordsAfter != recordsBefore {
		t.Fatalf("restart changed record count: %d vs %d", recordsAfter, recordsBefore)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("restart changed the answer:\nbefore: %s\nafter:  %s", before, after)
	}
}

// buildSystem is the in-memory boot of run as a plain call: the named
// building and seedRecords' records, ingested into a new System.
func buildSystem(dataset, iuptFile, format string, objects int, duration, seed int64, workers int, own func(tkplq.ObjectID) bool) (*tkplq.System, error) {
	b, err := sim.BuildingByName(dataset)
	if err != nil {
		return nil, err
	}
	recs, err := seedRecords(b, iuptFile, format, objects, duration, seed, own)
	if err != nil {
		return nil, err
	}
	sys, err := tkplq.NewSystem(b.Space, tkplq.NewTable(), tkplq.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	return sys, ingestInitial(sys, recs)
}

// TestBuildSystemFromFile round-trips a table through the gendata CSV format
// into the daemon's loader.
func TestBuildSystemFromFile(t *testing.T) {
	sys, err := buildSystem("syn", "", "csv", 6, 600, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "iupt.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Table().WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	loaded, err := buildSystem("syn", path, "csv", 0, 0, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Table().Len() != sys.Table().Len() {
		t.Errorf("loaded %d records, want %d", loaded.Table().Len(), sys.Table().Len())
	}

	// The two systems answer identically over the same data.
	q := sys.AllSLocations()
	query := tkplq.Query{Algorithm: tkplq.BestFirst, K: 3, Te: 600, SLocs: q}
	ra, err := sys.Do(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := loaded.Do(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	a, b := ra.Results, rb.Results
	if len(a) != len(b) {
		t.Fatalf("rankings differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("rank %d: %+v vs %+v", i, a[i], b[i])
		}
	}

	if _, err := buildSystem("nope", "", "csv", 1, 1, 1, 1, nil); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := buildSystem("syn", path, "xml", 0, 0, 5, 1, nil); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := buildSystem("syn", filepath.Join(t.TempDir(), "missing.csv"), "csv", 0, 0, 5, 1, nil); err == nil {
		t.Error("missing file accepted")
	}
}

// TestShardSeedsPartitionTheStandaloneSeed: over a 3-shard topology the
// shards' seeds — generated, or read from a -iupt CSV whose lines are
// shuffled — are disjoint, each in canonical (T, arrival) order, and merged
// by (T, standalone position) they are the standalone seed record for
// record.
func TestShardSeedsPartitionTheStandaloneSeed(t *testing.T) {
	b, err := sim.BuildingByName("syn")
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.New([]string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"})
	if err != nil {
		t.Fatal(err)
	}
	const objects, duration, seed = 12, 600, 4
	generated, err := seedRecords(b, "", "csv", objects, duration, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := slices.Clone(generated)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var csv bytes.Buffer
	w := iupt.NewCSVWriter(&csv)
	for _, rec := range shuffled {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shuffled.csv")
	if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ name, file string }{{"generated", ""}, {"shuffled csv", path}} {
		t.Run(tc.name, func(t *testing.T) {
			standalone, err := seedRecords(b, tc.file, "csv", objects, duration, seed, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.IsSortedFunc(standalone, func(a, b iupt.Record) int { return cmp.Compare(a.T, b.T) }) {
				t.Fatal("standalone seed is not in time order")
			}
			type key struct {
				oid iupt.ObjectID
				t   iupt.Time
			}
			pos := make(map[key]int, len(standalone))
			for i, rec := range standalone {
				pos[key{rec.OID, rec.T}] = i
			}
			type placed struct {
				rec iupt.Record
				pos int
			}
			var merged []placed
			seen := make(map[int]int) // standalone position -> shard
			for shard := range topo.NumShards() {
				recs, err := seedRecords(b, tc.file, "csv", objects, duration, seed, func(oid iupt.ObjectID) bool { return topo.Owns(oid, shard) })
				if err != nil {
					t.Fatal(err)
				}
				last := -1
				for _, rec := range recs {
					p, ok := pos[key{rec.OID, rec.T}]
					if !ok || !topo.Owns(rec.OID, shard) {
						t.Fatalf("shard %d holds record (%d, %d), which is not its own standalone record", shard, rec.OID, rec.T)
					}
					if other, dup := seen[p]; dup {
						t.Fatalf("record (%d, %d) is in the seeds of shards %d and %d", rec.OID, rec.T, other, shard)
					}
					if p <= last {
						t.Fatalf("shard %d: record (%d, %d) is out of canonical order", shard, rec.OID, rec.T)
					}
					seen[p], last = shard, p
					merged = append(merged, placed{rec, p})
				}
			}
			slices.SortFunc(merged, func(a, b placed) int {
				return cmp.Or(cmp.Compare(a.rec.T, b.rec.T), cmp.Compare(a.pos, b.pos))
			})
			if len(merged) != len(standalone) {
				t.Fatalf("the shards' seeds hold %d records, the standalone seed %d", len(merged), len(standalone))
			}
			for i := range merged {
				if !reflect.DeepEqual(merged[i].rec, standalone[i]) {
					t.Fatalf("merged record %d is %+v, standalone %+v", i, merged[i].rec, standalone[i])
				}
			}
		})
	}
}

// TestDaemonRefusesUnknownPLocation: an -iupt file that names a P-location
// the building does not have fails the in-memory boot, which ingests the
// file through System.Ingest's checks, instead of serving a table every
// query over that record would crash on.
func TestDaemonRefusesUnknownPLocation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "iupt.csv")
	if err := os.WriteFile(path, []byte("1,10,3:0.5;1000000:0.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A boot that wrongly succeeds serves until the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out syncBuffer
	err := run(ctx, []string{"-addr", "127.0.0.1:0", "-iupt", path}, &out)
	if err == nil || !strings.Contains(err.Error(), "unknown P-location 1000000") {
		t.Fatalf("boot over a record at P-location 1000000 returned %v, want an unknown P-location error (output: %s)", err, out.String())
	}
}

// TestDaemonPprof boots the daemon with -pprof on a second ephemeral
// listener and checks the profiling index and a heap profile are served
// there, while the query port stays pprof-free.
func TestDaemonPprof(t *testing.T) {
	base, out, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0", "-pprof", "127.0.0.1:0",
		"-objects", "4", "-duration", "300", "-seed", "3",
	})
	defer stop()

	m := regexp.MustCompile(`pprof on (\S+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("daemon did not announce the pprof listener: %s", out.String())
	}
	resp, err := http.Get(m[1])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d", resp.StatusCode)
	}
	hresp, err := http.Get(m[1] + "heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("heap profile = %d", hresp.StatusCode)
	}
	// The query listener must not expose profiling handlers.
	qresp, err := http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode == http.StatusOK {
		t.Fatal("query listener serves /debug/pprof/; it must stay on the separate -pprof listener")
	}
}

// TestDaemonPartitionedRestart boots the daemon with -data-dir: the
// first boot seals the bootstrap dataset into partition 1, an on-demand
// seal commits partition 2, and a restart maps both partitions — replaying
// only the post-seal WAL tail — while answering the same query identically.
func TestDaemonPartitionedRestart(t *testing.T) {
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{
		"-addr", "127.0.0.1:0",
		"-objects", "6", "-duration", "600", "-seed", "3",
		"-data-dir", dataDir,
	}

	base, out, stop := startDaemon(t, args)
	if !strings.Contains(out.String(), "bootstrap partition") {
		t.Fatalf("first boot did not announce the bootstrap partition: %s", out.String())
	}
	post := func(base, path, body string) []byte {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", path, resp.StatusCode, buf.String())
		}
		return buf.Bytes()
	}

	// Two records sealed into partition 2, two more left in the WAL tail.
	post(base, "/v1/ingest", `{"records":[{"oid":9001,"t":700,"samples":[{"ploc":0,"prob":1.0}]},`+
		`{"oid":9001,"t":703,"samples":[{"ploc":1,"prob":0.5},{"ploc":2,"prob":0.5}]}]}`)
	var snap struct {
		SnapshotSeq uint64 `json:"snapshot_seq"`
	}
	if err := json.Unmarshal(post(base, "/v1/snapshot", `{}`), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SnapshotSeq != 2 {
		t.Fatalf("on-demand seal committed seq %d, want 2 (bootstrap is 1)", snap.SnapshotSeq)
	}
	post(base, "/v1/ingest", `{"records":[{"oid":9002,"t":710,"samples":[{"ploc":0,"prob":1.0}]},`+
		`{"oid":9002,"t":712,"samples":[{"ploc":3,"prob":1.0}]}]}`)

	queryBody := `{"kind":"topk","algorithm":"bf","k":5,"te":800}`
	results := func(base string) []byte {
		t.Helper()
		var body struct {
			Results []struct {
				SLoc int     `json:"sloc"`
				Flow float64 `json:"flow"`
			} `json:"results"`
		}
		if err := json.Unmarshal(post(base, "/v2/query", queryBody), &body); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(body.Results)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	before := results(base)
	stop()

	base2, out2, stop2 := startDaemon(t, args)
	defer stop2()
	if !strings.Contains(out2.String(), "sealed partitions mapped") {
		t.Fatalf("second boot did not announce partition mapping: %s", out2.String())
	}

	// The storage stats section must show both partitions with only the
	// two tail records replayed.
	sresp, err := http.Get(base2 + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Storage *struct {
			SealSeq    uint64 `json:"seal_seq"`
			Partitions int    `json:"partitions"`
		} `json:"storage"`
		WAL *struct {
			ReplayedRecords int64 `json:"replayed_records"`
		} `json:"wal"`
	}
	err = json.NewDecoder(sresp.Body).Decode(&stats)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Storage == nil || stats.Storage.Partitions != 2 || stats.Storage.SealSeq != 2 {
		t.Fatalf("restarted storage stats = %+v", stats.Storage)
	}
	if stats.WAL == nil || stats.WAL.ReplayedRecords != 2 {
		t.Fatalf("restart replayed %+v, want only the 2-record WAL tail", stats.WAL)
	}

	after := results(base2)
	if !bytes.Equal(before, after) {
		t.Fatalf("restart changed the answer:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestPeriodicSealerStopsWithRun cancels the daemon while 1-ms periodic
// seals run under steady ingest, three times over. Once run has returned,
// nothing more reaches out and no file in the data directory changes: a seal
// in flight at the cancel finishes before the store closes.
func TestPeriodicSealerStopsWithRun(t *testing.T) {
	ingestBody := func(ts int) string {
		var b strings.Builder
		b.WriteString(`{"records":[`)
		for j := 0; j < 50; j++ {
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, `{"oid":%d,"t":%d,"samples":[{"ploc":0,"prob":1.0}]}`, 9000+j, ts)
		}
		return b.String() + "]}"
	}
	for round := 0; round < 3; round++ {
		dataDir := t.TempDir()
		base, out, stop := startDaemon(t, []string{
			"-addr", "127.0.0.1:0",
			"-objects", "4", "-duration", "300", "-seed", "3",
			"-data-dir", dataDir, "-snapshot-interval", "1ms",
		})
		quit := make(chan struct{})
		var ingest sync.WaitGroup
		ingest.Add(1)
		go func() {
			defer ingest.Done()
			for i := 1000; ; i++ {
				select {
				case <-quit:
					return
				default:
				}
				if resp, err := http.Post(base+"/v1/ingest", "application/json", strings.NewReader(ingestBody(i))); err == nil {
					resp.Body.Close()
				}
			}
		}()
		time.Sleep(100 * time.Millisecond)
		stop()

		outAtReturn, filesAtReturn := out.String(), dirState(t, dataDir)
		close(quit)
		ingest.Wait()
		time.Sleep(50 * time.Millisecond)
		if got := out.String(); got != outAtReturn {
			t.Errorf("round %d: output written after run returned: %q", round, strings.TrimPrefix(got, outAtReturn))
		}
		if got := dirState(t, dataDir); !reflect.DeepEqual(got, filesAtReturn) {
			t.Errorf("round %d: data directory changed after run returned:\nat return: %v\nlater:     %v", round, filesAtReturn, got)
		}
	}
}

// sealState reads a durable member's seal counters from GET /v1/stats: the
// seals its server's triggers and POST /v1/snapshot asked for, and the
// newest sealed partition.
func sealState(t *testing.T, base string) (requested int64, sealSeq uint64) {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		WAL struct {
			SnapshotsRequested int64 `json:"snapshots_requested"`
		} `json:"wal"`
		Storage struct {
			SealSeq uint64 `json:"seal_seq"`
		} `json:"storage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats.WAL.SnapshotsRequested, stats.Storage.SealSeq
}

// TestPeriodicSealerCountsInStats: a -snapshot-interval seal is one of the
// server's automatic seals, so it shows in wal.snapshots_requested like a
// count-triggered one and seals the ingested head into a new partition.
func TestPeriodicSealerCountsInStats(t *testing.T) {
	base, _, stop := startDaemon(t, []string{
		"-addr", "127.0.0.1:0",
		"-objects", "4", "-duration", "300", "-seed", "3",
		"-data-dir", t.TempDir(), "-snapshot-interval", "5ms",
	})
	defer stop()
	resp, err := http.Post(base+"/v1/ingest", "application/json",
		strings.NewReader(`{"records":[{"oid":9001,"t":400,"samples":[{"ploc":0,"prob":1.0}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		requested, sealSeq := sealState(t, base)
		if requested >= 1 && sealSeq >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no periodic seal reported: snapshots_requested %d, seal_seq %d (bootstrap is 1)", requested, sealSeq)
		}
	}
}

// dirState maps every file under dir to its size and modification time.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	state := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		state[path] = fmt.Sprintf("%d %d", info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestDaemonSeedsDataDirFromFile: -iupt FILE -format bin -data-dir DIR is
// the one way to seed a data directory from a file. The first boot seals the
// file into the bootstrap partition and answers byte-identically to an
// in-memory daemon over the same file; a reboot without -iupt maps that one
// partition, replays nothing and answers the same bytes.
func TestDaemonSeedsDataDirFromFile(t *testing.T) {
	sys, err := buildSystem("syn", "", "bin", 6, 600, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(t.TempDir(), "iupt.bin")
	f, err := os.Create(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Table().WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`{"kind":"topk","algorithm":"bf","k":5,"te":600}`,
		`{"kind":"topk","algorithm":"nl","k":3,"ts":120,"te":480}`,
		`{"kind":"density","k":5,"te":600}`,
	}
	results := func(base string) []string {
		t.Helper()
		var out []string
		for _, q := range queries {
			resp, err := http.Post(base+"/v2/query", "application/json", strings.NewReader(q))
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				Results json.RawMessage `json:"results"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || len(body.Results) <= len("[]") {
				t.Fatalf("POST /v2/query %s = %d with results %s: %v", q, resp.StatusCode, body.Results, err)
			}
			out = append(out, string(body.Results))
		}
		return out
	}
	assertSame := func(label string, got, want []string) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: query %s answered\n%s\nwant\n%s", label, queries[i], got[i], want[i])
			}
		}
	}

	base, _, stop := startDaemon(t, []string{"-addr", "127.0.0.1:0", "-iupt", file, "-format", "bin"})
	want := results(base)
	stop()

	dataDir := filepath.Join(t.TempDir(), "data")
	base, out, stop := startDaemon(t, []string{"-addr", "127.0.0.1:0", "-iupt", file, "-format", "bin", "-data-dir", dataDir})
	if !strings.Contains(out.String(), "bootstrap partition") {
		t.Fatalf("first boot did not announce the bootstrap partition: %s", out.String())
	}
	assertSame("seeded", results(base), want)
	stop()

	base, _, stop = startDaemon(t, []string{"-addr", "127.0.0.1:0", "-data-dir", dataDir})
	defer stop()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Storage struct {
			Partitions int `json:"partitions"`
		} `json:"storage"`
		WAL struct {
			ReplayedRecords int64 `json:"replayed_records"`
		} `json:"wal"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Storage.Partitions != 1 || stats.WAL.ReplayedRecords != 0 {
		t.Fatalf("reboot stats = %+v, want 1 partition and nothing replayed", stats)
	}
	assertSame("rebooted", results(base), want)
}
