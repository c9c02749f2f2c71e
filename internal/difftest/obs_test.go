package difftest

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"testing"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/obs"
	"sapalloc/internal/ringsap"
)

// TestObsPreservesOutputs pins the inertness contract of internal/obs: the
// hooks threaded through the solver hot paths observe, never steer. Every
// difftest case must produce a byte-identical Result (timings stripped) with
// metrics and tracing fully enabled as with observability off. The obs gates
// are process-global, so this test must not run in parallel with others.
func TestObsPreservesOutputs(t *testing.T) {
	for _, c := range PathCases() {
		t.Run(c.Name, func(t *testing.T) {
			obs.DisableMetrics()
			obs.DisableTracing()
			base, err := core.Solve(c.In, core.Params{})
			if err != nil {
				t.Fatalf("obs off: %v (replay: %s)", err, c.Replay)
			}
			stripTimings(base)

			obs.EnableMetrics()
			obs.EnableTracing(0)
			defer func() {
				obs.DisableTracing()
				obs.DisableMetrics()
				obs.Reset()
			}()
			got, err := core.Solve(c.In, core.Params{})
			if err != nil {
				t.Fatalf("obs on: %v (replay: %s)", err, c.Replay)
			}
			stripTimings(got)
			if !reflect.DeepEqual(got, base) {
				t.Errorf("enabling obs changed the Result (replay: %s)\n got: %+v\nwant: %+v",
					c.Replay, got, base)
			}
			if obs.SpanCount() == 0 {
				t.Error("tracing enabled but no spans recorded")
			}
			if obs.SolvesStarted.Value() == 0 {
				t.Error("metrics enabled but solves_started stayed 0")
			}
		})
	}
}

// TestObsPreservesOutputsRing is the ring-side twin of the inertness test.
func TestObsPreservesOutputsRing(t *testing.T) {
	for _, c := range RingCases() {
		t.Run(c.Name, func(t *testing.T) {
			obs.DisableMetrics()
			obs.DisableTracing()
			base, err := ringsap.Solve(c.Ring, ringsap.Params{})
			if err != nil {
				t.Fatalf("obs off: %v (replay: %s)", err, c.Replay)
			}
			stripTimings(base.PathDetail)

			obs.EnableMetrics()
			obs.EnableTracing(0)
			defer func() {
				obs.DisableTracing()
				obs.DisableMetrics()
				obs.Reset()
			}()
			got, err := ringsap.Solve(c.Ring, ringsap.Params{})
			if err != nil {
				t.Fatalf("obs on: %v (replay: %s)", err, c.Replay)
			}
			stripTimings(got.PathDetail)
			if !reflect.DeepEqual(got, base) {
				t.Errorf("enabling obs changed the Result (replay: %s)\n got: %+v\nwant: %+v",
					c.Replay, got, base)
			}
		})
	}
}

// TestShardTraceTracks traces one archipelago solve with two workers and
// reads it back through obs.WriteTrace. The shards run concurrently, so
// each opens its work on a track of its own (its partition included), and
// on every track the spans nest or follow one another, never overlap.
func TestShardTraceTracks(t *testing.T) {
	in := gen.Archipelago(gen.ArchipelagoConfig{Seed: 3, Islands: 16, IslandEdges: 8, GapEdges: 2, TasksPerIsland: 10, Class: gen.Mixed})
	obs.EnableTracing(1 << 16)
	defer func() {
		obs.DisableTracing()
		obs.Reset()
	}()
	res, err := core.Solve(in, core.Params{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards == nil || res.Shards.Shards < 2 {
		t.Fatalf("archipelago did not shard: %+v", res.Shards)
	}
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name    string
			Ph      string
			Ts, Dur float64
			Tid     uint32
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	type span struct {
		name   string
		lo, hi int64 // nanoseconds since the tracer epoch
	}
	tracks := map[uint32][]span{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		lo := int64(math.Round(ev.Ts * 1e3))
		tracks[ev.Tid] = append(tracks[ev.Tid], span{ev.Name, lo, lo + int64(math.Round(ev.Dur*1e3))})
	}
	shards := 0
	for tid, spans := range tracks {
		// Outer spans first on equal starts; open holds the enclosing
		// spans of the current one, innermost last.
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].lo != spans[j].lo {
				return spans[i].lo < spans[j].lo
			}
			return spans[i].hi > spans[j].hi
		})
		var open []span
		names := map[string]int{}
		for _, s := range spans {
			names[s.name]++
			for len(open) > 0 && open[len(open)-1].hi <= s.lo {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && s.hi > open[n-1].hi {
				t.Errorf("track %d: %s [%d,%d) overlaps %s [%d,%d) without nesting",
					tid, s.name, s.lo, s.hi, open[n-1].name, open[n-1].lo, open[n-1].hi)
			}
			open = append(open, s)
		}
		if names["shard/solve"]+names["core/partition"] > 0 && (names["shard/solve"] != 1 || names["core/partition"] != 1) {
			t.Errorf("track %d holds %d shard/solve and %d core/partition spans, want one shard with its partition",
				tid, names["shard/solve"], names["core/partition"])
		}
		shards += names["shard/solve"]
	}
	if shards != res.Shards.Shards {
		t.Errorf("%d shard/solve spans, want one per shard (%d)", shards, res.Shards.Shards)
	}
}
