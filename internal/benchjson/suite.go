package benchjson

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"sapalloc/internal/chendp"
	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/largesap"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
	"sapalloc/internal/ringsap"
	"sapalloc/internal/session"
	"sapalloc/internal/smallsap"
	"sapalloc/internal/ufppfull"
)

// Case is one pinned benchmark: the name the regression gate keys on
// (renaming a case silently drops it from the comparison) and the
// benchmark itself.
type Case struct {
	Name string
	Fn   func(b *testing.B)
}

// speedups lists the ratios a report carries: each is reported under name
// as the ns/op of slow over that of fast.
var speedups = []struct{ name, slow, fast string }{
	{"E11Combined/workers=4", "E11Combined/workers=1", "E11Combined/workers=4"},
	{"E30Shard/workers=4", "E30Shard/workers=1", "E30Shard/workers=4"},
	{"E35SessionChurn/incremental", "E35SessionChurn/full", "E35SessionChurn/incremental"},
}

// sink defeats dead-code elimination in the calibration spin.
var sink uint64

// spin is the calibration workload: a fixed xorshift loop with no memory
// traffic, so its ns/op tracks single-core clock speed and little else.
func spin() uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < 1<<14; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}

// Cases returns the pinned quick subset, in report order: the calibration
// spin, then the heavyweight experiment workloads (E4, E9, E11, E12, E18,
// E22, E30, E35) and the bottleneck-query micro-benchmark the perf work
// targets. Workloads are fixed-seed, so every run measures the same
// instances; the root package's BenchmarkPinned runs this same list, so a
// name means one instance whichever tool measures it.
func Cases() []Case {
	e4 := gen.Random(gen.Config{Seed: 3, Edges: 12, Tasks: 120, CapLo: 256, CapHi: 1025, Class: gen.Small})
	e9 := gen.Random(gen.Config{Seed: 7, Edges: 10, Tasks: 40, CapLo: 64, CapHi: 257, Class: gen.Large})
	// The speedup probe: the full pipeline on a mixed instance with enough
	// medium classes that both the arm-level and class-level parallelism
	// have work to spread. The Result is byte-identical for both worker
	// counts (see core.Solve); only the wall clock differs.
	e11 := gen.Random(gen.Config{Seed: 9, Edges: 10, Tasks: 42, CapLo: 128, CapHi: 513, Class: gen.Mixed})
	// The shard speedup probe: an archipelago decomposes into as many
	// independent sub-instances as it has islands, so the scatter is the
	// coarsest parallelism in the pipeline. Twelve islands of non-trivial
	// combined solves leave four workers nearly always busy. The Result is
	// byte-identical by the shard determinism contract.
	e30 := gen.Archipelago(gen.ArchipelagoConfig{
		Seed: 31, Islands: 12, IslandEdges: 8, GapEdges: 2,
		TasksPerIsland: 18, CapLo: 64, CapHi: 257, Class: gen.Mixed,
	})
	// Regression anchors for the slab-backed DP loops: the Chen DP keeps
	// its states, placements and keys in arena slabs, and the UFPP pipeline
	// reuses per-arm arenas across its class fan-outs. Their allocs/op are
	// pinned so CompareAllocs catches a return to per-state maps.
	e18 := gen.Random(gen.Config{Seed: 15, Edges: 10, Tasks: 20, CapLo: 16, CapHi: 17, Class: gen.Large})
	e22 := gen.Random(gen.Config{Seed: 23, Edges: 8, Tasks: 36, CapLo: 64, CapHi: 257, Class: gen.Mixed})
	ring := gen.Ring(11, 8, 10, 64, 257)
	// Bottleneck micro: 256 edges × 512 tasks, well past the RMQ gate. The
	// rmq entry includes the O(m log m) index build every op, so the pair is
	// an honest end-to-end comparison of the two query strategies.
	bq := gen.Random(gen.Config{Seed: 41, Edges: 256, Tasks: 512, CapLo: 64, CapHi: 4097, Class: gen.Mixed})
	// The churn probe: the incremental session engine vs cold re-solves on
	// an identical delta stream (see churn).
	e35 := gen.Archipelago(gen.ArchipelagoConfig{
		Seed: 35, Islands: 12, IslandEdges: 8, GapEdges: 2,
		TasksPerIsland: 18, CapLo: 64, CapHi: 257, Class: gen.Mixed,
	})

	return []Case{
		{CalibrationName, timed(nil, func(int) error {
			sink += spin()
			return nil
		})},
		{"E4StripPack", timed(func() error {
			res, err := smallsap.Solve(e4, smallsap.Params{})
			if err != nil {
				return err
			}
			return oracle.CheckSAP(e4, res.Solution)
		}, func(int) error {
			_, err := smallsap.Solve(e4, smallsap.Params{})
			return err
		})},
		{"E9Large", timed(nil, func(int) error {
			_, err := largesap.Solve(e9, largesap.Options{})
			return err
		})},
		{"E11Combined/workers=1", combined(e11, 1)},
		{"E11Combined/workers=4", combined(e11, 4)},
		{"E30Shard/workers=1", combined(e30, 1)},
		{"E30Shard/workers=4", combined(e30, 4)},
		{"E18ChenDP", timed(nil, func(int) error {
			_, err := chendp.Solve(e18, chendp.Options{})
			return err
		})},
		{"E22UFPPFull", timed(func() error {
			res, err := ufppfull.Solve(e22, ufppfull.Params{})
			if err != nil {
				return err
			}
			return model.ValidUFPP(e22, res.Tasks)
		}, func(int) error {
			_, err := ufppfull.Solve(e22, ufppfull.Params{})
			return err
		})},
		{"E12Ring", timed(nil, func(int) error {
			_, err := ringsap.Solve(ring, ringsap.Params{})
			return err
		})},
		{"BottleneckQueries/linear", timed(nil, func(int) error {
			var acc int64
			for _, t := range bq.Tasks {
				acc += bq.Bottleneck(t)
			}
			sink += uint64(acc)
			return nil
		})},
		{"BottleneckQueries/rmq", timed(nil, func(int) error {
			ix := model.NewBottleneckIndex(bq.Capacity)
			var acc int64
			for _, t := range bq.Tasks {
				acc += ix.Bottleneck(t)
			}
			sink += uint64(acc)
			return nil
		})},
		{"E35SessionChurn/incremental", churn(e35, false)},
		{"E35SessionChurn/full", churn(e35, true)},
	}
}

// timed is a benchmark of op: setup (if not nil) runs first, untimed, and
// then op(i) runs for i in [0, b.N). An error from either fails the case.
// The untimed setup is where a case checks its output once, so the check
// adds nothing to the measurement.
func timed(setup func() error, op func(i int) error) func(*testing.B) {
	return func(b *testing.B) {
		if setup != nil {
			if err := setup(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := op(i); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// combined times the full pipeline on in at the given worker count.
func combined(in *model.Instance, workers int) func(*testing.B) {
	return timed(nil, func(int) error {
		_, err := core.Solve(in, core.Params{Workers: workers})
		return err
	})
}

// churn times one session delta that removes a task and re-adds it: a
// one-island dirty region, so the incremental engine re-solves 1 of the
// archipelago's shards where the full baseline (full) re-solves all of
// them. Workers is pinned to 1 in both modes so the ratio measures work
// reduction, not parallelism; the ≥5x gate on the incremental speedup is
// what keeps deltas from quietly regressing to cold solves.
func churn(in *model.Instance, full bool) func(*testing.B) {
	var sess *session.Session
	return timed(func() (err error) {
		sess, err = session.New(in.Capacity, session.Options{Params: core.Params{Workers: 1}, Full: full})
		if err == nil {
			_, err = sess.Apply(context.Background(), session.Delta{Add: in.Tasks})
		}
		return err
	}, func(i int) error {
		t := in.Tasks[i%len(in.Tasks)]
		_, err := sess.Apply(context.Background(), session.Delta{Remove: []int{t.ID}, Add: []model.Task{t}})
		return err
	})
}

// Run measures each case with testing.Benchmark and returns the report,
// with the speedups computed from the named entries. A case that fails
// with b.Fatal (testing.Benchmark then reports no iterations) is left out of
// the report and named in the returned error. verbose, if non-nil, receives
// a progress line per case.
func Run(cases []Case, verbose func(string)) (*Report, error) {
	rep := NewReport()
	var failed []string
	for _, c := range cases {
		res := testing.Benchmark(c.Fn)
		if res.N == 0 {
			failed = append(failed, c.Name)
			if verbose != nil {
				verbose(fmt.Sprintf("%-28s FAILED", c.Name))
			}
			continue
		}
		e := Entry{
			Name:        c.Name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
		rep.Entries = append(rep.Entries, e)
		if verbose != nil {
			verbose(fmt.Sprintf("%-28s %12.0f ns/op %8d allocs/op %10d B/op", e.Name, e.NsPerOp, e.AllocsPerOp, e.BytesPerOp))
		}
	}
	for _, sp := range speedups {
		slow, ok := rep.Entry(sp.slow)
		fast, ok2 := rep.Entry(sp.fast)
		if ok && ok2 && fast.NsPerOp > 0 {
			rep.Speedups[sp.name] = slow.NsPerOp / fast.NsPerOp
		}
	}
	if len(failed) > 0 {
		return rep, fmt.Errorf("benchjson: %d case(s) failed: %s", len(failed), strings.Join(failed, ", "))
	}
	return rep, nil
}
