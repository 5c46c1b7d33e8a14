// Command gendata generates a synthetic indoor mobility dataset: a
// building, ground-truth trajectories, and the derived Indoor Uncertain
// Positioning Table (IUPT), written as CSV or the compact binary format.
// Records are generated lazily and streamed to the output as they are
// produced — the full table is never held in memory, so datasets far larger
// than RAM are fine (binary output to a pipe is the one exception: its
// count header needs a seekable file, so bin-to-stdout buffers records).
//
// Seed compatibility: the streaming generator derives one RNG stream per
// trajectory from -seed (generation v2) instead of the single shared RNG
// of earlier releases, so a given -seed now yields a different — still
// fully deterministic — dataset than it did before. Regenerate any
// externally recorded expectations keyed to a seed.
//
// Both output formats are specified byte by byte in docs/FORMATS.md. A
// generated file seeds an empty data directory on tkplqd's first boot,
// sealed as the bootstrap partition:
//
//	gendata -format bin -out seed.bin
//	tkplqd -iupt seed.bin -format bin -data-dir ./data ...
//
// Usage:
//
//	gendata [-dataset syn|rd] [-objects N] [-duration SECONDS]
//	        [-T SECONDS] [-mss N] [-mu METERS] [-seed N]
//	        [-out FILE] [-format csv|bin] [-stats]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"tkplq/internal/iupt"
	"tkplq/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gendata:", err)
		os.Exit(1)
	}
}

// run generates the dataset per flags, writing the table to -out (or stdout)
// and optional statistics to errOut.
func run(args []string, stdout, errOut io.Writer) error {
	fs := flag.NewFlagSet("gendata", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		dataset  = fs.String("dataset", "syn", "dataset kind: syn (multi-floor synthetic) or rd (real-data analog floor)")
		objects  = fs.Int("objects", 50, "number of moving objects")
		duration = fs.Int64("duration", 7200, "simulated span in seconds")
		period   = fs.Int64("T", 3, "maximum positioning period in seconds")
		mss      = fs.Int("mss", 4, "maximum sample-set size")
		mu       = fs.Float64("mu", 5, "positioning error radius in meters")
		seed     = fs.Int64("seed", 42, "random seed (generation v2: same seed, different dataset than pre-streaming releases)")
		out      = fs.String("out", "", "output file (default: stdout)")
		format   = fs.String("format", "csv", "output format: csv or bin")
		stats    = fs.Bool("stats", false, "print dataset statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	b, err := sim.BuildingByName(*dataset)
	if err != nil {
		return err
	}
	trajs, err := sim.SimulateMovement(b, sim.CLIMovementConfig(*objects, iupt.Time(*duration), *seed))
	if err != nil {
		return err
	}
	posCfg := sim.CLIPositioningConfig(*seed)
	posCfg.MaxPeriod, posCfg.MSS, posCfg.ErrorRadius = iupt.Time(*period), *mss, *mu

	w := stdout
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			return err
		}
		w = f
	}
	var acc *statsAcc
	if *stats {
		acc = &statsAcc{objects: map[iupt.ObjectID]bool{}}
	}
	err = writeStream(b, trajs, posCfg, *format, w, f, acc)
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && acc != nil {
		fmt.Fprintf(errOut,
			"space: %d partitions, %d doors, %d P-locations, %d S-locations, %d cells\n",
			b.Space.NumPartitions(), b.Space.NumDoors(), b.Space.NumPLocations(),
			b.Space.NumSLocations(), b.Space.NumCells())
		fmt.Fprintf(errOut,
			"iupt: %d records, %d objects, %d s span, %.2f samples/record (max %d)\n",
			acc.records, len(acc.objects), acc.span(), acc.avgSamples(), acc.maxSamples)
	}
	return err
}

// statsAcc accumulates the -stats summary incrementally, replacing the
// Table.ComputeStats call the streaming path can no longer afford.
type statsAcc struct {
	records      int
	objects      map[iupt.ObjectID]bool
	minT, maxT   iupt.Time
	totalSamples int64
	maxSamples   int
}

func (a *statsAcc) observe(rec iupt.Record) {
	if a == nil {
		return
	}
	if a.records == 0 || rec.T < a.minT {
		a.minT = rec.T
	}
	if a.records == 0 || rec.T > a.maxT {
		a.maxT = rec.T
	}
	a.records++
	a.objects[rec.OID] = true
	a.totalSamples += int64(len(rec.Samples))
	if len(rec.Samples) > a.maxSamples {
		a.maxSamples = len(rec.Samples)
	}
}

func (a *statsAcc) span() iupt.Time {
	if a.records == 0 {
		return 0
	}
	return a.maxT - a.minT
}

func (a *statsAcc) avgSamples() float64 {
	if a.records == 0 {
		return 0
	}
	return float64(a.totalSamples) / float64(a.records)
}

// writeStream generates the IUPT lazily and writes records as they are
// produced, so memory stays O(objects) no matter the dataset size. The
// binary format's count header needs a seek-patch, so bin to a non-seekable
// destination (stdout, a pipe) falls back to collecting every record in one
// slice before writing: that path holds the whole dataset in memory.
func writeStream(b *sim.Building, trajs []sim.Trajectory, posCfg sim.PositioningConfig, format string, w io.Writer, f *os.File, acc *statsAcc) error {
	stream, err := sim.StreamIUPT(b, trajs, posCfg)
	if err != nil {
		return err
	}
	switch format {
	case "csv":
		cw := iupt.NewCSVWriter(w)
		for {
			rec, ok := stream.Next()
			if !ok {
				return cw.Flush()
			}
			acc.observe(rec)
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	case "bin":
		if f == nil {
			var recs []iupt.Record
			for {
				rec, ok := stream.Next()
				if !ok {
					return iupt.WriteRecordsBinary(w, recs)
				}
				acc.observe(rec)
				recs = append(recs, rec)
			}
		}
		bw, err := iupt.NewBinaryWriter(f)
		if err != nil {
			return err
		}
		for {
			rec, ok := stream.Next()
			if !ok {
				return bw.Close()
			}
			acc.observe(rec)
			if err := bw.Write(rec); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown format %q (want csv or bin)", format)
	}
}
