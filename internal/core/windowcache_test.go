package core

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
)

// TestCacheDifferentialRacingIngest: appends landing between a miss's
// identity lookup and its materialization must leave no cached entry whose
// identity disagrees with its sequences. Queries race an appender over the
// same windows; once both stop, every entry's identity must describe its own
// sequences, every entry whose identity the table still vouches for must hold
// exactly the table's sequences, and the cached engine must answer as an
// uncached one does.
func TestCacheDifferentialRacingIngest(t *testing.T) {
	fig := indoor.Figure1Space()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(5))
	tb := randTable(rng, fig, 8, 40)
	eng := NewEngine(fig.Space, Options{Workers: 2})
	windows := [][2]iupt.Time{{0, 20}, {10, 40}, {0, 40}}

	// Queries run for as long as the (bounded, paced) appender does, so
	// materializations keep having appends land around them.
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		local := rand.New(rand.NewSource(6))
		for i := 0; i < 400; i++ {
			tb.Append(iupt.Record{OID: iupt.ObjectID(1 + local.Intn(8)), T: iupt.Time(local.Intn(41)), Samples: randSampleSet(local, fig.PLocs[:], 3)})
			time.Sleep(20 * time.Microsecond)
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				win := windows[(g+i)%len(windows)]
				if _, _, err := eng.TopK(tb, fig.SLocs[:], 3, win[0], win[1], AlgoNestedLoop); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	eng.cache.mu.Lock()
	entries := make(map[windowKey]*windowEntry)
	for _, gen := range []map[windowKey]*windowEntry{eng.cache.cur, eng.cache.prev} {
		for key, en := range gen {
			entries[key] = en
		}
	}
	eng.cache.mu.Unlock()
	if len(entries) == 0 {
		t.Fatal("no window was cached")
	}
	for key, en := range entries {
		// The table has no sealed part, so the identity's head count is the
		// window's whole record count.
		n := 0
		for _, seq := range en.seqs {
			n += len(seq)
		}
		if len(en.id.Parts) != 0 || en.id.Head != n {
			t.Errorf("window [%d, %d]: %d cached records stored under identity %v", key.ts, key.te, n, en.id)
		}
		fresh, id, err := tb.Window(ctx, key.ts, key.te, nil)
		if err != nil {
			t.Fatal(err)
		}
		if en.id.Equal(id) && !reflect.DeepEqual(en.seqs, fresh) {
			t.Errorf("window [%d, %d]: cached sequences differ from the table's under the identity %v both claim", key.ts, key.te, id)
		}
	}
	plain := NewEngine(fig.Space, Options{Workers: 2, DisableCache: true})
	for _, win := range windows {
		got, _, err := eng.TopK(tb, fig.SLocs[:], len(fig.SLocs), win[0], win[1], AlgoNestedLoop)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := plain.TopK(tb, fig.SLocs[:], len(fig.SLocs), win[0], win[1], AlgoNestedLoop)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, "after the race", want, got)
	}
}
