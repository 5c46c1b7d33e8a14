package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"tkplq/internal/indoor"
	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

// mayFuseMultiplyAdd is set by fma_test.go on targets where the compiler may
// fuse x*y + z into one rounding, which changes the summary bits without
// changing any answer beyond 1e-9.
var mayFuseMultiplyAdd bool

// The fleet of the bit-level golden and BenchmarkSummarizeWindow: bench/e2e's
// shape in miniature — the default two-floor building, 40 objects alive for
// the whole span, default positioning — cut into goldenWindows consecutive
// 300-second windows.
const (
	goldenObjects = 40
	goldenWindow  = iupt.Time(300)
	goldenWindows = 40
)

var (
	goldenOnce  sync.Once
	goldenSpace *indoor.Space
	goldenRed   [][]iupt.SampleSet // every object's reduced sequence, window by window
	goldenErr   error
)

// goldenFleet returns the fleet's space and the reduced sequence of every
// object of every window, in window order and ascending object id.
func goldenFleet(tb testing.TB) (*indoor.Space, [][]iupt.SampleSet) {
	tb.Helper()
	goldenOnce.Do(func() {
		b, err := sim.Generate(sim.DefaultBuildingConfig())
		if err != nil {
			goldenErr = err
			return
		}
		span := goldenWindow * goldenWindows
		mcfg := sim.DefaultMovementConfig()
		mcfg.Objects, mcfg.Duration, mcfg.Seed = goldenObjects, span, 1
		mcfg.MinLifespan, mcfg.MaxLifespan = span, span
		trajs, err := sim.SimulateMovement(b, mcfg)
		if err != nil {
			goldenErr = err
			return
		}
		pcfg := sim.DefaultPositioningConfig()
		pcfg.Seed = 3
		table, err := sim.GenerateIUPT(b, trajs, pcfg)
		if err != nil {
			goldenErr = err
			return
		}
		eng := NewEngine(b.Space, Options{})
		for ts := iupt.Time(0); ts < span; ts += goldenWindow {
			for _, seq := range iupt.GroupSequences(table.RecordsInRange(ts, ts+goldenWindow-1)).Seqs {
				if red, ok := eng.ReduceData(seq, nil); ok {
					goldenRed = append(goldenRed, red.Seq)
				}
			}
		}
		goldenSpace = b.Space
	})
	if goldenErr != nil {
		tb.Fatal(goldenErr)
	}
	return goldenSpace, goldenRed
}

// writeSummaryBits feeds the summary's ValidMass, LogScale, Segments and every
// PassMass entry to h, bit for bit.
func writeSummaryBits(h hash.Hash, s *ObjectSummary) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(math.Float64bits(s.ValidMass))
	put(math.Float64bits(s.LogScale))
	put(uint64(s.Segments))
	put(uint64(len(s.PassMass)))
	for _, cm := range s.PassMass {
		put(uint64(cm.Cell))
		put(math.Float64bits(cm.Mass))
	}
}

// summaryBitsGolden is the SHA-256 of every summary TestSummaryBitsGolden
// computes, taken before the Eq.-1 kernel became one walk over the sequence.
const summaryBitsGolden = "f4255e76bf2e14b9e9e10c395de91064a37f3e9e08e3185f7bc3b48dd7382519"

// TestSummaryBitsGolden pins Summarize to the bit: one hash over every summary
// of the golden fleet and of 300 Figure-1 sequences with impossible steps,
// under the default options, StrictPaths and unnormalized presence. A kernel
// rewrite that reorders a single float operation moves it.
func TestSummaryBitsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" || mayFuseMultiplyAdd {
		t.Skip("the compiler may fuse multiply-adds on this target (GOARCH != amd64 or GOAMD64 >= v3), which changes the bits")
	}
	space, fleet := goldenFleet(t)
	if len(fleet) < goldenObjects*goldenWindows*9/10 {
		t.Fatalf("golden fleet has %d reduced sequences, want about %d", len(fleet), goldenObjects*goldenWindows)
	}
	fig := indoor.Figure1Space()
	rng := rand.New(rand.NewSource(28))
	figSeqs := make([][]iupt.SampleSet, 300)
	for i := range figSeqs {
		figSeqs[i] = impossibleSequence(rng, fig)
	}
	h := sha256.New()
	segmented := 0
	for _, opts := range []Options{{}, {StrictPaths: true}, {Presence: UnnormalizedTotal}} {
		for _, in := range []struct {
			space *indoor.Space
			seqs  [][]iupt.SampleSet
		}{{space, fleet}, {fig.Space, figSeqs}} {
			eng := NewEngine(in.space, opts)
			for _, seq := range in.seqs {
				sum, _ := eng.Summarize(seq)
				if sum.Segments > 1 {
					segmented++
				}
				writeSummaryBits(h, sum)
			}
		}
	}
	t.Logf("%d fleet and %d Figure-1 sequences, %d summaries cut into segments", len(fleet), len(figSeqs), segmented)
	if segmented == 0 {
		t.Fatal("no sequence was cut: the segmented path went untested")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != summaryBitsGolden {
		t.Errorf("summary bits hash %s, want %s", got, summaryBitsGolden)
	}
}

// BenchmarkSummarizeWindow summarizes every object of the golden fleet, the
// kernel's share of a cold query. Reduction happens outside the timer.
func BenchmarkSummarizeWindow(b *testing.B) {
	b.ReportAllocs()
	space, fleet := goldenFleet(b)
	eng := NewEngine(space, Options{})
	for _, seq := range fleet {
		eng.Summarize(seq) // warm the scratch pool
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for _, seq := range fleet {
			eng.Summarize(seq)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	objects := float64(b.N * len(fleet))
	b.ReportMetric(float64(elapsed.Microseconds())/objects, "µs/object")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/objects, "allocs/object")
}
