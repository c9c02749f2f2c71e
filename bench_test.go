package sapalloc_test

// One benchmark per experiment of the reproduction harness (DESIGN.md §5,
// EXPERIMENTS.md) plus micro-benchmarks of the substrates. Run with
//
//	go test -bench=. -benchmem
//
// The Benchmark​E* targets regenerate the corresponding experiment's
// workload; absolute numbers are machine-local, but relative costs show
// where each pipeline spends its time. BenchmarkPinned runs the pinned
// cases that BENCH.json records, E4, E9, E11, E12, E18 and E22 among them.

import (
	"testing"

	"sapalloc/internal/benchjson"
	"sapalloc/internal/core"
	"sapalloc/internal/dsa"
	"sapalloc/internal/exact"
	"sapalloc/internal/experiments"
	"sapalloc/internal/gen"
	"sapalloc/internal/largesap"
	"sapalloc/internal/lp"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/model"
	"sapalloc/internal/smallsap"
	"sapalloc/internal/stretch"
	"sapalloc/internal/ufpp"
	"sapalloc/internal/window"
)

// BenchmarkPinned runs internal/benchjson's pinned cases, one sub-benchmark
// each, under the names and on the instances that `sapbench -json` records
// in BENCH.json.
func BenchmarkPinned(b *testing.B) {
	for _, c := range benchjson.Cases() {
		b.Run(c.Name, c.Fn)
	}
}

func BenchmarkE1Fig1Gap(b *testing.B) {
	in := gen.Fig1b()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SolveSAP(in, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE2Classify(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 1, Edges: 32, Tasks: 2000, Class: gen.Mixed})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		small, large := in.SplitDelta(1, 16)
		if len(small)+len(large) != len(in.Tasks) {
			b.Fatal("partition lost tasks")
		}
	}
}

func BenchmarkE3Clip(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 2, Edges: 64, Tasks: 500, Class: gen.Mixed})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = in.ClipCapacities(128)
	}
}

func BenchmarkE5LocalRatioStrip(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 3, Edges: 12, Tasks: 120, CapLo: 256, CapHi: 1025, Class: gen.Small})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := smallsap.Solve(in, smallsap.Params{Rounding: smallsap.LocalRatio})
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkE6StripConvert(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 4, Edges: 16, Tasks: 200, CapLo: 512, CapHi: 513, Class: gen.Small})
	half, _, err := ufpp.HalfPackable(in, 512, ufpp.RoundOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dsa.ConvertToStrip(half, 256)
	}
}

func BenchmarkE7Medium(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 5, Edges: 6, Tasks: 14, CapLo: 64, CapHi: 257, Class: gen.Medium})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mediumsap.Solve(in, mediumsap.Params{Eps: 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8Gravity(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 6, Edges: 16, Tasks: 300, CapLo: 512, CapHi: 513, Class: gen.Small})
	sol, _ := dsa.PackStrip(in.Tasks, 400, dsa.ByInput)
	lifted := sol.Clone().Lift(50)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = dsa.Gravity(lifted)
	}
}

func BenchmarkE10Degeneracy(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 8, Edges: 10, Tasks: 200, CapLo: 64, CapHi: 257, Class: gen.Large})
	rects := largesap.RectanglesOf(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = largesap.SmallestLastColoring(rects)
	}
}

func BenchmarkE11CombinedMemTrace(b *testing.B) {
	in := gen.MemTrace(gen.MemTraceConfig{Seed: 10, Slots: 48, Objects: 100})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Solve(in, core.Params{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE13BestOf(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 12, Edges: 8, Tasks: 40, CapLo: 64, CapHi: 257, Class: gen.Mixed})
	res, err := core.Solve(in, core.Params{})
	if err != nil {
		b.Fatal(err)
	}
	sols := []*model.Solution{res.SmallDetail.Solution, res.MediumDetail.Solution, res.Solution}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.BestOf(sols)
	}
}

func BenchmarkE14LPGap(b *testing.B) {
	in := gen.Staircase(13, 16, 60, 16, gen.Mixed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := lp.UFPPFractional(in); err != nil {
			b.Fatal(err)
		}
	}
}

// --- substrate micro-benchmarks ---

func BenchmarkLPSimplexMedium(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 14, Edges: 32, Tasks: 200, Class: gen.Small})
	p := lp.UFPPRelaxation(in)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.Solve(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFirstFit1000(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 15, Edges: 64, Tasks: 1000, CapLo: 4096, CapHi: 4097, Class: gen.Small})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = dsa.PackStripUnbounded(in.Tasks, dsa.ByStart)
	}
}

func BenchmarkExactSAP12(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 16, Edges: 5, Tasks: 12, CapLo: 16, CapHi: 65, Class: gen.Mixed})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SolveSAP(in, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidSAP(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 17, Edges: 32, Tasks: 500, CapLo: 4096, CapHi: 4097, Class: gen.Small})
	sol, _ := dsa.PackStrip(in.Tasks, 4096, dsa.ByStart)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.ValidSAP(in, sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuiteQuick times the entire quick experiment suite — the
// regeneration cost of EXPERIMENTS.md's reduced form.
func BenchmarkSuiteQuick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (experiments.Suite{Quick: true}).RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE15DeltaSweep(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 18, Edges: 8, Tasks: 40, CapLo: 64, CapHi: 257, Class: gen.Mixed})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, den := range []int64{4, 16, 32} {
			if _, err := core.Solve(in, core.Params{DeltaDen: den}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkE16UniformBaseline(b *testing.B) {
	in := gen.Uniform(19, 16, 200, 64, gen.Mixed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ufpp.UniformBaseline(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE17PackingOrders(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 20, Edges: 12, Tasks: 300, CapLo: 2048, CapHi: 2049, Class: gen.Small})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ord := range []dsa.Order{dsa.ByStart, dsa.ByDensity, dsa.ByInput} {
			_, _ = dsa.PackStripUnbounded(in.Tasks, ord)
		}
	}
}

func BenchmarkE19MinStretch(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 22, Edges: 10, Tasks: 80, CapLo: 64, CapHi: 257, Class: gen.Small})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stretch.MinStretch(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParallelMediumWorkers(b *testing.B) {
	in := gen.Random(gen.Config{Seed: 24, Edges: 8, Tasks: 20, CapLo: 64, CapHi: 4097, Class: gen.Medium})
	for _, workers := range []int{1, 4} {
		b.Run(map[int]string{1: "workers1", 4: "workers4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := mediumsap.Solve(in, mediumsap.Params{Eps: 0.5, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE23WindowExact(b *testing.B) {
	sap := gen.Random(gen.Config{Seed: 26, Edges: 5, Tasks: 9, CapLo: 8, CapHi: 33, Class: gen.Mixed})
	in := window.Widen(window.Fixed(sap), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := window.SolveExact(in, window.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
