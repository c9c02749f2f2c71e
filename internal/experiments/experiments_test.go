package experiments

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"sync"
	"testing"

	"sapalloc/internal/saperr"
)

// quickSuite runs everything in quick mode once and shares the result.
var quickTables []Table

func tables(t *testing.T) []Table {
	t.Helper()
	if quickTables == nil {
		ts, err := Suite{Quick: true}.RunAll()
		if err != nil {
			t.Fatalf("RunAll: %v", err)
		}
		quickTables = ts
	}
	return quickTables
}

func findTable(t *testing.T, id string) Table {
	t.Helper()
	for _, tb := range tables(t) {
		if tb.ID == id {
			return tb
		}
	}
	t.Fatalf("table %s not found", id)
	return Table{}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestRunAllProducesAllTables(t *testing.T) {
	ts := tables(t)
	if len(ts) != 23 {
		t.Fatalf("RunAll produced %d tables, want 23", len(ts))
	}
	seen := map[string]bool{}
	for _, tb := range ts {
		if tb.ID == "" || tb.Title == "" || len(tb.Columns) == 0 || len(tb.Rows) == 0 {
			t.Errorf("table %q incomplete", tb.ID)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("table %s: row width %d != %d columns", tb.ID, len(row), len(tb.Columns))
			}
		}
		seen[tb.ID] = true
	}
	for i := 1; i <= 24; i++ {
		if id := "E" + strconv.Itoa(i); seen[id] != (i != 21) {
			t.Errorf("table %s present = %v", id, seen[id])
		}
	}
}

// TestRunNamesFailingRunner: a runner that fails or panics fails the suite
// with an error that names its table ID, not its slot.
func TestRunNamesFailingRunner(t *testing.T) {
	boom := errors.New("boom")
	ok := runner{"E1", func() (Table, error) { return Table{ID: "E1"}, nil }}
	for _, c := range []struct {
		bad   runner
		check func(error) bool
	}{
		{runner{"E22", func() (Table, error) { return Table{}, boom }},
			func(err error) bool { return errors.Is(err, boom) }},
		{runner{"E23", func() (Table, error) { panic("kaboom") }},
			func(err error) bool { var ie *saperr.Internal; return errors.As(err, &ie) && ie.Value == "kaboom" }},
	} {
		ts, err := run([]runner{ok, c.bad}, nil)
		if err == nil || ts != nil || !c.check(err) || !strings.Contains(err.Error(), "experiments: "+c.bad.id+":") {
			t.Errorf("runner %s: tables %v, err %v; want an error naming %s", c.bad.id, ts, err, c.bad.id)
		}
	}
}

// TestRunOnly: a selection runs the named runners, and no other, and
// returns their tables in experiment order; an unknown ID is an error.
func TestRunOnly(t *testing.T) {
	ran := map[string]int{}
	var mu sync.Mutex
	var all []runner
	for _, id := range []string{"E1", "E2", "E9", "E10", "E22"} {
		all = append(all, runner{id, func() (Table, error) {
			mu.Lock()
			ran[id]++
			mu.Unlock()
			return Table{ID: id}, nil
		}})
	}
	ts, err := run(all, []string{"E10", "E9"})
	if err != nil || len(ts) != 2 || ts[0].ID != "E9" || ts[1].ID != "E10" {
		t.Fatalf("run(E10,E9) = %v, %v; want the E9 and E10 tables", ts, err)
	}
	if len(ran) != 2 || ran["E9"] != 1 || ran["E10"] != 1 {
		t.Errorf("runners run: %v; want E9 and E10 once each", ran)
	}
	if _, err := run(all, []string{"E9", "E21"}); err == nil || !strings.Contains(err.Error(), `"E21"`) {
		t.Errorf("unknown ID: err %v, want one naming E21", err)
	}
}

func TestE1GapExists(t *testing.T) {
	tb := findTable(t, "E1")
	for _, row := range tb.Rows[:2] {
		if row[4] != "no" {
			t.Errorf("figure instance %q should not be fully SAP-packable", row[0])
		}
	}
}

func TestE3ClippingAlwaysPreserved(t *testing.T) {
	tb := findTable(t, "E3")
	cell := tb.Rows[0][2]
	parts := strings.Split(cell, "/")
	if len(parts) != 2 || parts[0] != parts[1] {
		t.Errorf("clipping not always preserved: %s", cell)
	}
}

func TestE4StripPackWithinBound(t *testing.T) {
	tb := findTable(t, "E4")
	// Exact-relative row must satisfy the 4+ε bound (ε = 0.5 here).
	if max := parseF(t, tb.Rows[0][2]); max > 4.5 {
		t.Errorf("strip-pack exact ratio %g exceeds 4.5", max)
	}
}

func TestE5LocalRatioWithinBound(t *testing.T) {
	tb := findTable(t, "E5")
	if max := parseF(t, tb.Rows[0][2]); max > 5.5 {
		t.Errorf("local-ratio strip exact ratio %g exceeds 5.5", max)
	}
}

func TestE6RetainedAboveLemma4(t *testing.T) {
	tb := findTable(t, "E6")
	for _, row := range tb.Rows {
		minRet := parseF(t, row[2])
		bound := parseF(t, row[4])
		if minRet < bound {
			t.Errorf("δ=%s: retained %g below 1−4δ=%g", row[0], minRet, bound)
		}
	}
}

func TestE7MediumWithinBound(t *testing.T) {
	tb := findTable(t, "E7")
	for _, row := range tb.Rows {
		eps := parseF(t, row[1])
		if max := parseF(t, row[3]); max > 2+eps+1e-9 {
			t.Errorf("medium ratio %g exceeds 2+%g", max, eps)
		}
	}
}

func TestE8GravityPerfect(t *testing.T) {
	tb := findTable(t, "E8")
	row := tb.Rows[0]
	for _, cell := range []string{row[2], row[3]} {
		parts := strings.Split(cell, "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("gravity property violated: %s", cell)
		}
	}
}

func TestE9LargeWithinBound(t *testing.T) {
	tb := findTable(t, "E9")
	for _, row := range tb.Rows {
		max := parseF(t, row[2])
		if strings.Contains(row[0], "heuristic") {
			// The color-class heuristic over the FULL family carries no
			// 2k−1 guarantee (Lemma 17 colors feasible solutions only);
			// sanity check only.
			if max < 1-1e-9 {
				t.Errorf("%s: ratio %g below 1", row[0], max)
			}
			continue
		}
		bound := parseF(t, row[4])
		if max > bound+1e-9 {
			t.Errorf("k=%s: large ratio %g exceeds %g", row[0], max, bound)
		}
	}
}

func TestE10DegeneracyBound(t *testing.T) {
	tb := findTable(t, "E10")
	for _, row := range tb.Rows {
		if d := parseF(t, row[2]); d > 2 {
			t.Errorf("%s: degeneracy %g exceeds 2", row[0], d)
		}
	}
	if !strings.Contains(tb.Rows[1][4], "3") {
		t.Errorf("Fig 8 should require 3 colors: %s", tb.Rows[1][4])
	}
}

func TestE11CombinedWithinBound(t *testing.T) {
	tb := findTable(t, "E11")
	if max := parseF(t, tb.Rows[0][2]); max > 9.5 {
		t.Errorf("combined exact ratio %g exceeds 9.5", max)
	}
	for _, row := range tb.Rows[1:] {
		if max := parseF(t, row[2]); max > 9.5 {
			t.Errorf("%s: LP-relative ratio %g exceeds 9.5", row[0], max)
		}
	}
}

func TestE12RingWithinBound(t *testing.T) {
	tb := findTable(t, "E12")
	if max := parseF(t, tb.Rows[0][2]); max > 10.5 {
		t.Errorf("ring ratio %g exceeds 10.5", max)
	}
}

func TestE13EachArmWins(t *testing.T) {
	tb := findTable(t, "E13")
	want := map[string]string{
		"small-heavy":  "small",
		"medium-heavy": "medium",
		"large-heavy":  "large",
	}
	for _, row := range tb.Rows {
		if prefix := want[row[0]]; prefix != "" && !strings.HasPrefix(row[1], prefix) {
			t.Errorf("mix %s won by %s, want %s arm", row[0], row[1], prefix)
		}
	}
}

func TestE14GapModest(t *testing.T) {
	tb := findTable(t, "E14")
	for _, row := range tb.Rows {
		if mean := parseF(t, row[3]); mean < 1-1e-9 {
			t.Errorf("family %s: mean gap %g below 1 — LP not an upper bound?!", row[0], mean)
		}
		if strings.HasPrefix(row[0], "Ω(n) chain") {
			continue // checked below
		}
		if max := parseF(t, row[2]); max > 3 {
			t.Errorf("family %s: LP gap %g unexpectedly large", row[0], max)
		}
	}
	// The adversarial chain rows must show the linear growth: gap ≈ n/2.
	var chainGaps []float64
	for _, row := range tb.Rows {
		if strings.HasPrefix(row[0], "Ω(n) chain") {
			chainGaps = append(chainGaps, parseF(t, row[2]))
		}
	}
	if len(chainGaps) != 3 {
		t.Fatalf("expected 3 chain rows, got %d", len(chainGaps))
	}
	wantN := []float64{4, 8, 12}
	for i, g := range chainGaps {
		if g < wantN[i]/2-1 || g > wantN[i]/2+1 {
			t.Errorf("chain n=%g: gap %g not ≈ n/2", wantN[i], g)
		}
	}
	if !(chainGaps[0] < chainGaps[1] && chainGaps[1] < chainGaps[2]) {
		t.Errorf("chain gap not growing: %v", chainGaps)
	}
}

func TestWriteMarkdown(t *testing.T) {
	var buf bytes.Buffer
	WriteMarkdown(&buf, tables(t))
	out := buf.String()
	if !strings.Contains(out, "## E1 —") || !strings.Contains(out, "| --- |") {
		t.Errorf("markdown malformed:\n%s", out[:200])
	}
	if !strings.Contains(out, "## E14") {
		t.Errorf("markdown missing E14")
	}
}

func TestRatioStats(t *testing.T) {
	var r ratioStats
	r.add(10, 5)
	r.add(6, 6)
	if r.max != 2 {
		t.Errorf("max = %g", r.max)
	}
	if r.mean() != 1.5 {
		t.Errorf("mean = %g", r.mean())
	}
	var empty ratioStats
	if empty.mean() != 0 {
		t.Errorf("empty mean = %g", empty.mean())
	}
	// alg=0, opt=0 counts as ratio 1; alg=0, opt>0 skipped.
	var z ratioStats
	z.add(0, 0)
	if z.n != 1 || z.max != 1 {
		t.Errorf("zero-zero handling: %+v", z)
	}
}

func TestSuiteTrials(t *testing.T) {
	if (Suite{Quick: true}).trials(40) != 10 {
		t.Errorf("quick trials = %d", (Suite{Quick: true}).trials(40))
	}
	if (Suite{}).trials(40) != 40 {
		t.Errorf("full trials = %d", (Suite{}).trials(40))
	}
	if (Suite{Quick: true}).trials(4) != 2 {
		t.Errorf("quick floor = %d", (Suite{Quick: true}).trials(4))
	}
}

func TestE15DeltaSweepWithinBound(t *testing.T) {
	tb := findTable(t, "E15")
	if len(tb.Rows) != 4 {
		t.Fatalf("E15 rows = %d, want 4", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if max := parseF(t, row[2]); max > 9.5 {
			t.Errorf("δ=%s: combined ratio %g exceeds 9.5", row[0], max)
		}
	}
}

func TestE16BaselinesWithinClassicFactors(t *testing.T) {
	tb := findTable(t, "E16")
	// Bar-Noy baseline provably ≤ 4 (wide exact + narrow local ratio).
	if max := parseF(t, tb.Rows[0][2]); max > 4+1e-9 {
		t.Errorf("Bar-Noy baseline ratio %g exceeds 4", max)
	}
	// Algorithm Strip packs into B/2; against the full-capacity optimum its
	// ratio is bounded by 2·(5+ε) ≈ 10 very loosely; assert sanity.
	if max := parseF(t, tb.Rows[1][2]); max > 11 {
		t.Errorf("Algorithm Strip full-capacity ratio %g out of range", max)
	}
}

func TestE17PackingAblation(t *testing.T) {
	tb := findTable(t, "E17")
	if len(tb.Rows) != 4 {
		t.Fatalf("E17 rows = %d, want 4", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		hi := 2.0
		if strings.Contains(row[0], "class bands") {
			hi = 4 // rounding to powers of two costs up to 2x, banding a bit more
		}
		if v := parseF(t, row[2]); v < 1-1e-9 || v > hi+1e-9 {
			t.Errorf("order %s: makespan/LOAD %g out of [1,%g]", row[0], v, hi)
		}
		if strings.Contains(row[4], "no ceiling") {
			continue
		}
		if r := parseF(t, row[4]); r <= 0 || r > 1 {
			t.Errorf("order %s: retained %g out of (0,1]", row[0], r)
		}
	}
	// The classic by-start order should have the best (lowest) mean
	// makespan inflation among the three.
	byStart := parseF(t, tb.Rows[0][3])
	for _, row := range tb.Rows[1:] {
		if parseF(t, row[3]) < byStart-1e-9 {
			t.Logf("note: order %s beat by-start on this seed set", row[0])
		}
	}
}

func TestE18ChenDPAgrees(t *testing.T) {
	tb := findTable(t, "E18")
	for _, row := range tb.Rows {
		parts := strings.Split(row[3], "/")
		if len(parts) != 2 || parts[0] != parts[1] {
			t.Errorf("K=%s n=%s: solvers disagree: %s", row[0], row[1], row[3])
		}
	}
}

func TestE19MinStretchCoherent(t *testing.T) {
	tb := findTable(t, "E19")
	// Exact ≤ heuristic; lower bound ≤ exact; heuristic/exact ≥ 1 and small.
	row := tb.Rows[0]
	h, e, lb, ratio := parseF(t, row[2]), parseF(t, row[3]), parseF(t, row[4]), parseF(t, row[5])
	if e > h+1e-9 {
		t.Errorf("exact mean ρ %g above heuristic %g", e, h)
	}
	if lb > e+1e-9 {
		t.Errorf("lower bound %g above exact %g", lb, e)
	}
	if ratio < 1-1e-9 || ratio > 3 {
		t.Errorf("heuristic/exact ratio %g out of [1,3]", ratio)
	}
	// Large row: heuristic within 3x of the load lower bound.
	if r2 := parseF(t, tb.Rows[1][5]); r2 > 3 {
		t.Errorf("heuristic/lower-bound %g too large", r2)
	}
}

func TestE20ScalingSane(t *testing.T) {
	tb := findTable(t, "E20")
	if len(tb.Rows) < 4 {
		t.Fatalf("E20 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if row[4] == "—" {
			t.Errorf("%s n=%s produced an empty solution", row[0], row[1])
			continue
		}
		if r := parseF(t, row[4]); r < 1-1e-9 || r > 10 {
			t.Errorf("%s n=%s: LP-bound/weight %g out of [1,10]", row[0], row[1], r)
		}
	}
}

func TestE22ContiguityDominance(t *testing.T) {
	tb := findTable(t, "E22")
	for _, row := range tb.Rows {
		if mean := parseF(t, row[2]); mean < 1-1e-9 {
			t.Errorf("%s: UFPP/SAP exact ratio %g below 1 — dominance broken", row[0], mean)
		}
	}
	// The figure rows must show a strict gap.
	for _, row := range tb.Rows[1:] {
		if g := parseF(t, row[2]); g <= 1 {
			t.Errorf("%s: expected a strict gap, got %g", row[0], g)
		}
	}
}

func TestE23SlackMonotone(t *testing.T) {
	tb := findTable(t, "E23")
	prev := -1.0
	for _, row := range tb.Rows {
		ex := parseF(t, row[2])
		if ex < prev-1e-9 {
			t.Errorf("slack %s: exact weight %g decreased from %g", row[0], ex, prev)
		}
		prev = ex
		gr := parseF(t, row[3])
		if gr > ex+1e-9 {
			t.Errorf("slack %s: greedy %g above exact %g", row[0], gr, ex)
		}
	}
}

func TestE24LiftNonNegative(t *testing.T) {
	tb := findTable(t, "E24")
	for _, row := range tb.Rows {
		if !strings.HasPrefix(row[2], "+") || !strings.HasPrefix(row[3], "+") {
			t.Errorf("%s: negative lift: %s / %s", row[0], row[2], row[3])
		}
		if r := parseF(t, row[4]); r < 1-1e-9 {
			t.Errorf("%s: LP bound below improved weight: %g", row[0], r)
		}
	}
}
