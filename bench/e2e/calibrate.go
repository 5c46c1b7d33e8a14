package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), which
// is what the builder's driver uses. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// runCalibration runs the suite 2×n times as two interleaved sets (A B A B
// …) of the same code and compares them: for every end-to-end metric and
// workload it prints every value measured, each set's median and quartiles,
// each set's spread (quartile distance over median) and the relative gap
// between the two medians, next to the metric's bound. It fails when a gap
// exceeds its bound: such a metric cannot tell a regression from noise.
func runCalibration(out io.Writer, cfg runConfig, names []string, n int) error {
	if n < 2 {
		return fmt.Errorf("-calibrate needs at least 2 runs per set, got %d", n)
	}
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	sets[0], sets[1] = map[key][]float64{}, map[key][]float64{}
	for i := 0; i < 2*n; i++ {
		results, err := runSuite(cfg, names)
		if err != nil {
			return fmt.Errorf("calibration run %d: %w", i, err)
		}
		for _, res := range results {
			if res.failed > 0 {
				return fmt.Errorf("calibration run %d: %s: %d operations failed: %v", i, res.workload, res.failed, res.failures)
			}
			for _, m := range reported(endToEnd, res.workload, cfg.trace) {
				k := key{res.workload, m.name}
				sets[i%2][k] = append(sets[i%2][k], res.values[m.name])
			}
		}
		fmt.Fprintf(out, "calibration run %d of %d done\n", i+1, 2*n)
	}

	fmt.Fprintf(out, "\n| workload | metric | unit | A median [q1, q3] | B median [q1, q3] | spread A | spread B | gap | bound |\n")
	fmt.Fprintf(out, "|---|---|---|---|---|---|---|---|---|\n")
	var over []string
	for _, name := range names {
		for _, m := range reported(endToEnd, name, cfg.trace) {
			k := key{name, m.name}
			a, b := sets[0][k], sets[1][k]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			sa, sb := (a3-a1)/ma, (b3-b1)/mb
			gap := math.Abs(ma-mb) / ma
			fmt.Fprintf(out, "| %s | %s | %s | %.4f [%.4f, %.4f] | %.4f [%.4f, %.4f] | %.3f | %.3f | %.3f | %.2f |\n",
				name, m.name, m.unit, ma, a1, a3, mb, b1, b3, sa, sb, gap, m.bound)
			if gap > m.bound {
				over = append(over, fmt.Sprintf("%s %s: gap %.3f exceeds bound %.2f", name, m.name, gap, m.bound))
			}
		}
	}
	fmt.Fprintf(out, "\nevery run, in order (A B A B …):\n")
	for _, name := range names {
		for _, m := range reported(endToEnd, name, cfg.trace) {
			k := key{name, m.name}
			fmt.Fprintf(out, "  %s %s:", name, m.name)
			for i := 0; i < n; i++ {
				fmt.Fprintf(out, " %.4f %.4f", sets[0][k][i], sets[1][k][i])
			}
			fmt.Fprintln(out)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two sets of runs of the same code disagree beyond the bounds:\n  %s", strings.Join(over, "\n  "))
	}
	return nil
}
