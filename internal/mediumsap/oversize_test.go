package mediumsap_test

import (
	"context"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/gen"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/oracle"
)

// A class with more tasks than exact.MaxTasks is solved on its heaviest
// MaxTasks tasks and marked degraded, not dropped. On these 200-task paths
// most medium classes hold 64 to 76 tasks; when such classes were dropped
// with weight 0, the arm returned the weights in dropped (at the same node
// budget), and the arm must never do worse than that.
func TestOversizeClassesAreSolved(t *testing.T) {
	dropped := map[int64]int64{1: 932, 3: 1125, 5: 646, 6: 504}
	for _, seed := range []int64{1, 3, 5, 6} {
		cfg := gen.Config{Seed: seed, Edges: 64, Tasks: 200, MaxSpan: 16, Class: gen.Mixed}
		in := gen.Random(cfg)
		_, medium, _ := core.Partition(in, 16)
		medIn := in.Restrict(medium)
		res, err := mediumsap.SolveCtx(context.Background(), medIn, mediumsap.Params{Workers: 1, Exact: exact.Options{MaxNodes: 20_000}})
		if err != nil {
			t.Fatalf("[replay: %s] %v", cfg.Replay(), err)
		}
		if len(res.ClassErrs) > 0 {
			t.Errorf("[replay: %s] classes failed: %v", cfg.Replay(), res.ClassErrs)
		}
		if !res.Degraded {
			t.Errorf("[replay: %s] oversize classes not reported as degraded", cfg.Replay())
		}
		if err := oracle.CheckSAP(medIn, res.Solution); err != nil {
			t.Errorf("[replay: %s] %v", cfg.Replay(), err)
		}
		if w := res.Solution.Weight(); w < dropped[seed] {
			t.Errorf("[replay: %s] weight %d, below the %d of dropping the oversize classes", cfg.Replay(), w, dropped[seed])
		}
	}
}
