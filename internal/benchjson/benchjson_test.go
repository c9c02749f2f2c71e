package benchjson

import (
	"bytes"
	"flag"
	"strings"
	"testing"
)

func report(cal float64, entries ...Entry) *Report {
	r := NewReport()
	if cal > 0 {
		r.Entries = append(r.Entries, Entry{Name: CalibrationName, NsPerOp: cal})
	}
	r.Entries = append(r.Entries, entries...)
	return r
}

func TestRoundTrip(t *testing.T) {
	r := report(100, Entry{Name: "x", NsPerOp: 1234, AllocsPerOp: 7, BytesPerOp: 512})
	r.Speedups["E11Combined/workers=4"] = 1.8
	var buf bytes.Buffer
	if err := Write(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != 1 || got.GoMaxProcs != r.GoMaxProcs {
		t.Fatalf("header mismatch: %+v", got)
	}
	e, ok := got.Entry("x")
	if !ok || e.NsPerOp != 1234 || e.AllocsPerOp != 7 || e.BytesPerOp != 512 {
		t.Fatalf("entry mismatch: %+v ok=%v", e, ok)
	}
	if got.Speedups["E11Combined/workers=4"] != 1.8 {
		t.Fatalf("speedups lost: %+v", got.Speedups)
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := report(0, Entry{Name: "a", NsPerOp: 100}, Entry{Name: "b", NsPerOp: 100})
	fresh := report(0, Entry{Name: "a", NsPerOp: 125}, Entry{Name: "b", NsPerOp: 150})
	regs := Compare(base, fresh, 0.30)
	if len(regs) != 1 || regs[0].Name != "b" {
		t.Fatalf("want exactly b flagged, got %v", regs)
	}
	if regs[0].Ratio < 1.49 || regs[0].Ratio > 1.51 {
		t.Fatalf("ratio = %v, want 1.5", regs[0].Ratio)
	}
}

func TestCompareCalibrates(t *testing.T) {
	// The fresh machine is uniformly 2x slower (calibration doubled too);
	// after normalisation nothing regressed.
	base := report(100, Entry{Name: "a", NsPerOp: 1000})
	fresh := report(200, Entry{Name: "a", NsPerOp: 2000})
	if regs := Compare(base, fresh, 0.30); len(regs) != 0 {
		t.Fatalf("calibrated compare flagged uniform slowdown: %v", regs)
	}
	// Same clocks, genuine 2x regression still caught.
	fresh2 := report(100, Entry{Name: "a", NsPerOp: 2000})
	if regs := Compare(base, fresh2, 0.30); len(regs) != 1 {
		t.Fatalf("genuine regression missed: %v", regs)
	}
}

func TestCompareIgnoresMissingEntries(t *testing.T) {
	base := report(0, Entry{Name: "retired", NsPerOp: 100})
	fresh := report(0, Entry{Name: "new", NsPerOp: 100})
	if regs := Compare(base, fresh, 0.30); len(regs) != 0 {
		t.Fatalf("disjoint entry sets should not regress: %v", regs)
	}
}

func TestCompareSortsWorstFirst(t *testing.T) {
	base := report(0, Entry{Name: "a", NsPerOp: 100}, Entry{Name: "b", NsPerOp: 100})
	fresh := report(0, Entry{Name: "a", NsPerOp: 150}, Entry{Name: "b", NsPerOp: 300})
	regs := Compare(base, fresh, 0.30)
	if len(regs) != 2 || regs[0].Name != "b" {
		t.Fatalf("want b (3x) first, got %v", regs)
	}
}

func TestCompareAllocsGate(t *testing.T) {
	// Within the 10% + absolute-slack envelope: small counts may jitter by
	// a few allocations without tripping the gate.
	base := report(0, Entry{Name: "a", AllocsPerOp: 100}, Entry{Name: "b", AllocsPerOp: 10000})
	ok := report(0, Entry{Name: "a", AllocsPerOp: 130}, Entry{Name: "b", AllocsPerOp: 10500})
	if regs := CompareAllocs(base, ok, 0.10); len(regs) != 0 {
		t.Fatalf("within-envelope growth flagged: %v", regs)
	}
	// A hot path regressing to per-state allocation multiplies the count.
	bad := report(0, Entry{Name: "a", AllocsPerOp: 500}, Entry{Name: "b", AllocsPerOp: 12000})
	regs := CompareAllocs(base, bad, 0.10)
	if len(regs) != 2 || regs[0].Name != "a" {
		t.Fatalf("want both flagged, worst (a, 5x) first, got %v", regs)
	}
}

func TestParseSpeedupReqs(t *testing.T) {
	reqs, err := ParseSpeedupReqs("E30Shard/workers=4=2.0, E11Combined/workers=4=1.5")
	if err != nil {
		t.Fatal(err)
	}
	want := []SpeedupReq{
		{Name: "E30Shard/workers=4", Min: 2.0},
		{Name: "E11Combined/workers=4", Min: 1.5},
	}
	if len(reqs) != 2 || reqs[0] != want[0] || reqs[1] != want[1] {
		t.Fatalf("reqs = %+v, want %+v", reqs, want)
	}
	if reqs, err := ParseSpeedupReqs(""); err != nil || len(reqs) != 0 {
		t.Fatalf("empty spec: reqs=%v err=%v, want none", reqs, err)
	}
	for _, bad := range []string{"noequals", "=2.0", "name=", "name=zero", "name=-1"} {
		if _, err := ParseSpeedupReqs(bad); err == nil {
			t.Errorf("ParseSpeedupReqs(%q) accepted a malformed requirement", bad)
		}
	}
}

func TestGateSpeedups(t *testing.T) {
	reqs := []SpeedupReq{{Name: "E30Shard/workers=4", Min: 2.0}}

	pass := report(0)
	pass.GoMaxProcs = MinSpeedupProcs
	pass.Speedups["E30Shard/workers=4"] = 2.7
	if fails, skipped := GateSpeedups(pass, reqs); skipped || len(fails) != 0 {
		t.Fatalf("passing report: fails=%v skipped=%v", fails, skipped)
	}

	slow := report(0)
	slow.GoMaxProcs = MinSpeedupProcs
	slow.Speedups["E30Shard/workers=4"] = 1.4
	if fails, skipped := GateSpeedups(slow, reqs); skipped || len(fails) != 1 {
		t.Fatalf("below-minimum speedup not flagged: fails=%v skipped=%v", fails, skipped)
	}

	missing := report(0)
	missing.GoMaxProcs = MinSpeedupProcs
	if fails, skipped := GateSpeedups(missing, reqs); skipped || len(fails) != 1 {
		t.Fatalf("missing figure not flagged: fails=%v skipped=%v", fails, skipped)
	}

	// A single-core machine cannot demonstrate parallel speedup; the gate
	// must skip, not fail, so local runs of the CI script stay green.
	uni := report(0)
	uni.GoMaxProcs = 1
	uni.Speedups["E30Shard/workers=4"] = 0.98
	if fails, skipped := GateSpeedups(uni, reqs); !skipped || len(fails) != 0 {
		t.Fatalf("GoMaxProcs=1 report: fails=%v skipped=%v, want a clean skip", fails, skipped)
	}
}

func TestCompareAllocsIgnoresCalibrationAndMissing(t *testing.T) {
	base := report(0, Entry{Name: "retired", AllocsPerOp: 1})
	base.Entries = append(base.Entries, Entry{Name: CalibrationName, AllocsPerOp: 0})
	fresh := report(0, Entry{Name: "new", AllocsPerOp: 1000000})
	fresh.Entries = append(fresh.Entries, Entry{Name: CalibrationName, AllocsPerOp: 1000})
	if regs := CompareAllocs(base, fresh, 0.10); len(regs) != 0 {
		t.Fatalf("calibration/disjoint entries should not regress: %v", regs)
	}
}

// TestRunReportsFailedCase: a case that fails leaves no entry (its ns/op
// would be NaN, which encoding/json refuses) and is named in Run's error,
// while the other cases and the speedups from them are still reported.
func TestRunReportsFailedCase(t *testing.T) {
	// testing.Benchmark reads -test.benchtime: one iteration per case
	// keeps the test fast.
	bt := flag.Lookup("test.benchtime")
	old := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = bt.Value.Set(old) }() // old is the flag's own value, so it parses
	work := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += spin()
		}
	}
	rep, err := Run([]Case{
		{"E30Shard/workers=1", work},
		{"broken", func(b *testing.B) { b.Fatal("no instance") }},
		{"E30Shard/workers=4", work},
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("err = %v, want one naming the broken case", err)
	}
	if len(rep.Entries) != 2 || rep.Entries[0].Name != "E30Shard/workers=1" || rep.Entries[1].Name != "E30Shard/workers=4" {
		t.Errorf("entries = %+v, want the two passing cases", rep.Entries)
	}
	if _, ok := rep.Speedups["E30Shard/workers=4"]; !ok || len(rep.Speedups) != 1 {
		t.Errorf("speedups = %v, want E30Shard/workers=4 only", rep.Speedups)
	}
	if err := Write(&bytes.Buffer{}, rep); err != nil {
		t.Errorf("report does not encode: %v", err)
	}
}

// TestCasesNamesUnique: the regression gate keys entries by name, so each
// pinned name must be defined once, and every speedup must name two cases.
func TestCasesNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Cases() {
		if seen[c.Name] || c.Fn == nil {
			t.Errorf("case %q duplicated or without a benchmark", c.Name)
		}
		seen[c.Name] = true
	}
	for _, sp := range speedups {
		if !seen[sp.slow] || !seen[sp.fast] {
			t.Errorf("speedup %s divides cases %q and %q; not both are pinned", sp.name, sp.slow, sp.fast)
		}
	}
}
