// Command sapbench runs the experiment suite (E1–E20 and E22–E24, one per
// paper figure, theorem or design question; -only picks a subset) and
// writes the resulting tables as markdown — the regeneration path for
// EXPERIMENTS.md.
//
// With -json it instead runs the pinned quick benchmark subset and emits a
// machine-readable BENCH.json report; combined with -baseline it becomes
// the CI regression gate.
//
// Usage:
//
//	sapbench                # full run to stdout
//	sapbench -quick         # reduced trial counts
//	sapbench -out EXPERIMENTS.md
//	sapbench -only E9,E10
//	sapbench -json -out BENCH.json                       # refresh baseline
//	sapbench -json -baseline BENCH.json -maxregress 0.30 # regression gate
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sapalloc/internal/benchjson"
	"sapalloc/internal/experiments"
	"sapalloc/internal/obscli"
)

func main() {
	var (
		quick      = flag.Bool("quick", false, "reduced trial counts")
		out        = flag.String("out", "-", "output path ('-' for stdout)")
		only       = flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
		seed       = flag.Int64("seed", 0, "seed offset for all generators")
		jsonMode   = flag.Bool("json", false, "run the pinned benchmark subset and emit a BENCH.json report")
		baseline   = flag.String("baseline", "", "with -json: compare against this committed BENCH.json and exit 1 on regression")
		maxRegress = flag.Float64("maxregress", 0.30, "with -baseline: allowed fractional ns/op growth (0.30 = +30%)")
		// Allocation counts are machine-independent, so their gate is an
		// order of magnitude tighter than the calibrated ns/op gate.
		maxAllocRegress = flag.Float64("maxallocregress", 0.10, "with -baseline: allowed fractional allocs/op growth (0.10 = +10%)")
		// The speedup gate reads only the fresh report — parallel scaling is
		// a property of this run, not a diff against the baseline. It skips
		// itself on machines with fewer than benchjson.MinSpeedupProcs procs.
		minSpeedup = flag.String("minspeedup", "", "with -json: comma-separated name=min speedup requirements (e.g. 'E30Shard/workers=4=2.0'); exit 1 if unmet")
	)
	obsFlags := obscli.Register(flag.CommandLine)
	flag.Parse()
	stopObs, err := obsFlags.Start("sapbench")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sapbench: %v\n", err)
		os.Exit(1)
	}

	if *jsonMode {
		code := runJSON(*out, *baseline, *maxRegress, *maxAllocRegress, *minSpeedup)
		stopObs()
		os.Exit(code)
	}
	defer stopObs()

	var ids []string
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	suite := experiments.Suite{Quick: *quick, Seed: *seed}
	start := time.Now()
	tables, err := suite.RunAll(ids...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sapbench: %v\n", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sapbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	fmt.Fprintf(w, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(w, "Generated by `go run ./cmd/sapbench`%s in %s. ", flagSummary(*quick, *seed), elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "Each experiment reproduces one artefact of Bar-Yehuda, Beder & Rawitz, ")
	fmt.Fprintf(w, "\"A Constant Factor Approximation Algorithm for the Storage Allocation Problem\" (SPAA 2013 / Algorithmica 2016); ")
	fmt.Fprintf(w, "see DESIGN.md §5 for the experiment index. Ratios are OPT/ALG (or LP-bound/ALG where marked); bounds are the paper's proven factors.\n\n")
	experiments.WriteMarkdown(w, tables)
}

// runJSON runs the pinned subset, writes the report, and (when a baseline
// is given) applies the regression gate. Returns the process exit code.
func runJSON(out, baseline string, maxRegress, maxAllocRegress float64, minSpeedup string) int {
	// Parse the speedup spec up front so a typo fails before the (slow)
	// benchmark run rather than after it.
	speedupReqs, err := benchjson.ParseSpeedupReqs(minSpeedup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sapbench: -minspeedup: %v\n", err)
		return 1
	}
	start := time.Now()
	rep, err := benchjson.Run(benchjson.Cases(), func(line string) { fmt.Fprintln(os.Stderr, line) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "sapbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "sapbench: pinned subset done in %s (gomaxprocs=%d)\n",
		time.Since(start).Round(time.Millisecond), rep.GoMaxProcs)

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sapbench: %v\n", err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if err := benchjson.Write(w, rep); err != nil {
		fmt.Fprintf(os.Stderr, "sapbench: %v\n", err)
		return 1
	}

	code := 0
	if len(speedupReqs) > 0 {
		fails, skipped := benchjson.GateSpeedups(rep, speedupReqs)
		switch {
		case skipped:
			fmt.Fprintf(os.Stderr, "sapbench: speedup gate skipped: gomaxprocs=%d < %d, parallel scaling is unmeasurable here\n",
				rep.GoMaxProcs, benchjson.MinSpeedupProcs)
		case len(fails) == 0:
			fmt.Fprintf(os.Stderr, "sapbench: all %d speedup requirement(s) met\n", len(speedupReqs))
		default:
			fmt.Fprintf(os.Stderr, "sapbench: %d speedup requirement(s) unmet:\n", len(fails))
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "  %s\n", f)
			}
			code = 1
		}
	}

	if baseline == "" {
		return code
	}
	base, err := benchjson.ReadFile(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sapbench: %v\n", err)
		return 1
	}
	regs := benchjson.Compare(base, rep, maxRegress)
	if len(regs) == 0 {
		fmt.Fprintf(os.Stderr, "sapbench: no ns/op regression beyond +%.0f%% vs %s\n", maxRegress*100, baseline)
	} else {
		fmt.Fprintf(os.Stderr, "sapbench: %d benchmark(s) regressed beyond +%.0f%% ns/op vs %s:\n", len(regs), maxRegress*100, baseline)
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		code = 1
	}
	aregs := benchjson.CompareAllocs(base, rep, maxAllocRegress)
	if len(aregs) == 0 {
		fmt.Fprintf(os.Stderr, "sapbench: no allocs/op regression beyond +%.0f%% vs %s\n", maxAllocRegress*100, baseline)
	} else {
		fmt.Fprintf(os.Stderr, "sapbench: %d benchmark(s) regressed beyond +%.0f%% allocs/op vs %s:\n", len(aregs), maxAllocRegress*100, baseline)
		for _, r := range aregs {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		code = 1
	}
	return code
}

func flagSummary(quick bool, seed int64) string {
	var parts []string
	if quick {
		parts = append(parts, "-quick")
	}
	if seed != 0 {
		parts = append(parts, fmt.Sprintf("-seed %d", seed))
	}
	if len(parts) == 0 {
		return ""
	}
	return " `" + strings.Join(parts, " ") + "`"
}
