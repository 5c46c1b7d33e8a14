// Command e2e is the repository's serving benchmark: it runs the real
// internal/server handlers over loopback HTTP inside its own process, drives
// them closed-loop from one client connection with a fixed, seed-derived
// request sequence, checks sampled answers against an in-memory reference,
// and prints every metric by name with its unit. README.md documents the
// workloads, the metrics and how they are expected to interact.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// boolArg is a boolean flag that also accepts a separate argument, so both
// the documented -trace=false and the driver's "--trace 0" parse.
type boolArg bool

func (b *boolArg) String() string { return strconv.FormatBool(bool(*b)) }

func (b *boolArg) Set(s string) error {
	v, err := strconv.ParseBool(s)
	*b = boolArg(v)
	return err
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: query_cold, query_hot, cluster_query, live_mix or all")
	seed := fs.Int64("seed", 1, "seed of the dataset and of every window and Zipf choice")
	seconds := fs.Int("seconds", runSeconds, "timed-phase length the operation counts are scaled to (fixed work, not fixed time)")
	trace := boolArg(true)
	fs.Var(&trace, "trace", "run the traced replay after the timed phase and report per-layer metrics")
	dir := fs.String("dir", "", "parent of the temporary data directories (default: /dev/shm when it is a writable tmpfs, else the system temp dir)")
	outDir := fs.String("out", "bench/e2e/out", "directory the span files are written to")
	calibrate := fs.Int("calibrate", 0, "run the suite 2×N times as two interleaved sets and compare them against the bounds")
	contract := fs.Bool("contract", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *contract {
		return printContract(out)
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %d out of range [1, 60]", *seconds)
	}
	var names []string
	for _, w := range workloads {
		if *workload == "all" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	// One request connection plus one SSE stream keep client threads within
	// the reference box's two cores; pinning GOMAXPROCS makes that the
	// configuration everywhere.
	runtime.GOMAXPROCS(2)
	if *dir == "" {
		*dir = defaultDataDir()
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	cfg := runConfig{z: full().forSeconds(*seconds), seed: *seed, trace: bool(trace), dataDir: *dir, outDir: *outDir}
	fmt.Fprintln(out, envLine(*dir))

	if *calibrate > 0 {
		return runCalibration(out, cfg, names, *calibrate)
	}
	results, err := runSuite(cfg, names)
	if err != nil {
		return err
	}
	for _, res := range results {
		printResult(out, res, cfg.trace)
	}
	// The builder's contract: one JSON object as the last line of a
	// single-workload run.
	if len(results) == 1 {
		return printContractLine(out, results[0], cfg.trace)
	}
	for _, res := range results {
		if res.failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", res.workload, res.failed, res.attempted)
		}
	}
	return nil
}

// runSuite generates the dataset once and runs the named workloads over it.
func runSuite(cfg runConfig, names []string) ([]*result, error) {
	ds, err := generate(cfg.z, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("generating the dataset: %w", err)
	}
	var results []*result
	for _, name := range names {
		res, err := runWorkload(cfg, ds, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// defaultDataDir keeps the shared virtual disk out of the numbers: loading
// and sealing the dataset took 1.5–2.5 s on the VM's disk and 1.40–1.54 s on
// tmpfs in a prototype, and that spread is a neighbour's, not this
// program's. What the device would have been asked to do is reported as
// exact counts (wal.fsyncs_per_batch, wal.bytes_per_record,
// parts.sealed_bytes_per_record).
func defaultDataDir() string {
	const shm = "/dev/shm"
	if fsName(shm) == "tmpfs" {
		if f, err := os.CreateTemp(shm, "e2e-probe-"); err == nil {
			f.Close()
			os.Remove(f.Name())
			return shm
		}
	}
	return os.TempDir()
}

// fsName names the filesystem holding path, for the environment line.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// envLine is printed with every result so numbers from different machines
// are never compared by accident.
func envLine(dataDir string) string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("env: nproc=%d GOMAXPROCS=%d go=%s kernel=%s data_dir=%s data_fs=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, dataDir, fsName(dataDir), commit)
}

// reported returns the metrics of defs that this run of the workload should
// have produced.
func reported(defs []metric, workload string, trace bool) []metric {
	var out []metric
	for _, m := range defs {
		if m.on&maskOf(workload) != 0 && (trace || !m.traced) {
			out = append(out, m)
		}
	}
	return out
}

func printResult(out io.Writer, res *result, trace bool) {
	fmt.Fprintf(out, "\n== %s: %d operations attempted, %d failed\n", res.workload, res.attempted, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(out, "   FAILED %s\n", f)
	}
	fmt.Fprintln(out, "end-to-end:")
	for _, m := range reported(endToEnd, res.workload, trace) {
		line := fmt.Sprintf("  %-32s %14.4f %-6s bound %.2f", m.name, res.values[m.name], m.unit, m.bound)
		if per := res.perSlice[m.name]; per != nil {
			line += fmt.Sprintf("  per slice %.4f", per)
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "  latency samples: %v\n", res.samples)
	fmt.Fprintln(out, "per-layer:")
	for _, m := range reported(perLayer, res.workload, trace) {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", m.name, res.values[m.name], m.unit)
	}
	if len(res.selfMS) > 0 {
		fmt.Fprintln(out, "traced self time per operation (ms):")
		for _, nv := range res.selfMS {
			fmt.Fprintf(out, "  %-32s %14.4f\n", nv.name, nv.value)
		}
	}
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the run's result in the builder's format: the
// end-to-end metrics without the traced run, the per-layer metrics with it,
// in both cases only those every workload reports.
func printContractLine(out io.Writer, res *result, trace bool) error {
	defs := universal(endToEnd)
	if trace {
		defs = universal(perLayer)
	}
	ms := map[string]contractMetric{}
	for _, m := range defs {
		v, ok := res.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", res.workload, m.name)
		}
		ms[m.name] = contractMetric{Value: v, Unit: m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]contractMetric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printContract prints BENCHMARK.json from the metric tables, so the file
// and the program cannot drift apart (the smoke test compares them).
func printContract(out io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/e2e/run.sh"},
		Paths:      []string{"bench/e2e"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if len(w.why) > 200 {
			return errors.New("workload why longer than 200 characters: " + w.name)
		}
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range universal(endToEnd) {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range universal(perLayer) {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
