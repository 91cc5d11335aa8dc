package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// quickCfg is a small configuration that keeps every experiment fast
// enough for the test suite while still exercising its full code path.
func quickCfg() Config {
	// Sizes must push the leaf segment well past the modelled 20 MiB LLC
	// so the memory-bound regimes of the paper appear (4M pairs = 64 MiB,
	// 8M pairs = 128 MiB of leaves — the paper's smallest tree is 8M);
	// queries cover 16 buckets so bucket pipelines reach steady state.
	return Config{Quick: true, Sizes: []int{1 << 22, 1 << 23}, Queries: 1 << 18}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ext-update",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
		"fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
		"fig5-6", "fig7", "fig8", "fig9"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, got[i], want[i])
		}
	}
	for _, id := range got {
		if _, ok := Describe(id); !ok {
			t.Fatalf("no description for %s", id)
		}
	}
	if _, ok := Describe("nope"); ok {
		t.Fatal("described unknown experiment")
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// runFig runs one experiment and returns its tables, failing the test on
// error or empty output.
func runFig(t *testing.T, id string) []Table {
	t.Helper()
	if testing.Short() {
		// The figure regenerations take minutes under the race detector;
		// the full (non -short) suite covers them.
		t.Skip("figure regeneration skipped in -short mode")
	}
	tables, err := Run(id, quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s: no tables", id)
	}
	for _, tb := range tables {
		if len(tb.Rows) == 0 || len(tb.Cols) == 0 {
			t.Fatalf("%s/%s: empty table", id, tb.ID)
		}
		for _, r := range tb.Rows {
			if len(r) != len(tb.Cols) {
				t.Fatalf("%s/%s: row width %d != %d cols", id, tb.ID, len(r), len(tb.Cols))
			}
		}
		var buf bytes.Buffer
		tb.Fprint(&buf)
		if !strings.Contains(buf.String(), tb.ID) {
			t.Fatalf("%s: Fprint lost the table id", id)
		}
	}
	return tables
}

// cell parses a numeric table cell (stripping trailing x/%).
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestFig7Shapes(t *testing.T) {
	tables := runFig(t, "fig7")
	misses, thr := tables[0], tables[1]
	for _, r := range misses.Rows {
		all4K := cell(t, r[1])
		huge := cell(t, r[2])
		full := cell(t, r[3])
		if all4K < huge || huge < full {
			t.Fatalf("TLB miss ordering violated: %v", r)
		}
		// Huge-paged I-segment bounds misses to ~1 per query (Sec. 4.1).
		if huge > 1.05 {
			t.Fatalf("1G/4K misses %v exceed one per query", huge)
		}
	}
	last := misses.Rows[len(misses.Rows)-1]
	first := misses.Rows[0]
	if cell(t, last[1]) <= cell(t, first[1]) {
		t.Fatalf("4K/4K misses do not grow with tree size: %v vs %v", first[1], last[1])
	}
	for _, r := range thr.Rows {
		if cell(t, r[3]) < cell(t, r[1]) {
			t.Fatalf("1G/1G should not be slower than 4K/4K: %v", r)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	tb := runFig(t, "fig8")[0]
	for _, r := range tb.Rows {
		noSWP, seq, lin, hier := cell(t, r[1]), cell(t, r[2]), cell(t, r[3]), cell(t, r[4])
		if seq <= noSWP {
			t.Fatalf("software pipelining gained nothing: %v", r)
		}
		gain := seq / noSWP
		if gain < 1.5 || gain > 3.5 {
			t.Fatalf("SWP gain %.2f outside the paper's regime", gain)
		}
		if !(hier >= lin && lin >= seq) {
			t.Fatalf("node search ordering violated: %v", r)
		}
	}
}

func TestFig9Shapes(t *testing.T) {
	tb := runFig(t, "fig9")[0]
	for _, r := range tb.Rows {
		ratio := cell(t, r[3])
		if ratio < 1.0 || ratio > 2.0 {
			t.Fatalf("B+/FAST ratio %.2f implausible (paper ~1.3x)", ratio)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	tb := runFig(t, "fig10")[0]
	for _, r := range tb.Rows {
		seq, pipe, db := cell(t, r[1]), cell(t, r[2]), cell(t, r[3])
		if !(db >= pipe && pipe >= seq) {
			t.Fatalf("strategy ordering violated: %v", r)
		}
		if db < 1.5*seq {
			t.Fatalf("double-buffering gain too small: %v", r)
		}
	}
}

func TestFig11Shapes(t *testing.T) {
	tables := runFig(t, "fig11")
	thr, lat := tables[0], tables[1]
	// Throughput grows (or holds) with bucket size; latency grows.
	for c := 1; c <= 2; c++ {
		if cell(t, thr.Rows[len(thr.Rows)-1][c]) < cell(t, thr.Rows[0][c])*0.95 {
			t.Fatalf("column %d: throughput fell with bucket size", c)
		}
		if cell(t, lat.Rows[len(lat.Rows)-1][c]) <= cell(t, lat.Rows[0][c]) {
			t.Fatalf("column %d: latency did not grow with bucket size", c)
		}
	}
}

func TestFig12Shapes(t *testing.T) {
	tb := runFig(t, "fig12")[0]
	if tb.Rows[0][0] != "Uniform" || cell(t, tb.Rows[0][1]) != 1.0 {
		t.Fatalf("baseline row wrong: %v", tb.Rows[0])
	}
	var zipf float64
	for _, r := range tb.Rows {
		if r[0] == "Zipf" {
			zipf = cell(t, r[1])
		}
	}
	if zipf < 1.2 {
		t.Fatalf("Zipf gain %.2fx too small (paper: up to 2.2x)", zipf)
	}
}

func TestFig13Shapes(t *testing.T) {
	tables := runFig(t, "fig13")
	thr := tables[0]
	for _, r := range thr.Rows {
		a1, amt := cell(t, r[1]), cell(t, r[2])
		if amt <= a1 {
			t.Fatalf("async-MT not faster than async-1T: %v", r)
		}
		if amt > 4.5*a1 {
			t.Fatalf("async speedup %.1f exceeds the paper's ~3x regime", amt/a1)
		}
		s1, smt := cell(t, r[3]), cell(t, r[4])
		if smt < s1 {
			t.Fatalf("sync-MT slower than sync-1T: %v", r)
		}
	}
}

func TestFig14Shapes(t *testing.T) {
	tb := runFig(t, "fig14")[0]
	if tb.Rows[0][3] != "sync" {
		t.Fatalf("smallest batch should favour sync: %v", tb.Rows[0])
	}
	if tb.Rows[len(tb.Rows)-1][3] != "async" {
		t.Fatalf("largest batch should favour async: %v", tb.Rows[len(tb.Rows)-1])
	}
}

func TestFig15Shapes(t *testing.T) {
	tb := runFig(t, "fig15")[0]
	for _, r := range tb.Rows {
		share := cell(t, r[4])
		if share <= 0 || share > 25 {
			t.Fatalf("I-seg transfer share %.1f%% implausible (paper: 3-7%%)", share)
		}
	}
}

func TestFig16Shapes(t *testing.T) {
	tables := runFig(t, "fig16")
	t64 := tables[0]
	for _, r := range t64.Rows {
		gain := cell(t, r[5])
		if gain < 1.0 {
			t.Fatalf("HB+ slower than CPU on M1: %v", r)
		}
	}
	// The gain grows (or holds) as the tree outgrows the LLC.
	if cell(t, t64.Rows[len(t64.Rows)-1][5]) < cell(t, t64.Rows[0][5])*0.9 {
		t.Fatalf("HB+/CPU gain shrank with size")
	}
	lat := tables[2]
	for _, r := range lat.Rows {
		if cell(t, r[4]) < 5 {
			t.Fatalf("hybrid latency ratio %v too small (paper ~67x)", r[4])
		}
	}
}

func TestFig17Shapes(t *testing.T) {
	tb := runFig(t, "fig17")[0]
	first := cell(t, tb.Rows[0][5])
	last := cell(t, tb.Rows[len(tb.Rows)-1][5])
	if last >= first {
		t.Fatalf("HB+ range advantage should decay with selectivity: %v -> %v", first, last)
	}
}

func TestFig18Shapes(t *testing.T) {
	tb := runFig(t, "fig18")[0]
	for _, r := range tb.Rows {
		cpu, noLB, lb := cell(t, r[2]), cell(t, r[3]), cell(t, r[4])
		if lb < noLB {
			t.Fatalf("load balancing made things worse: %v", r)
		}
		_ = cpu
	}
	// At the largest size the unbalanced tree should trail the CPU tree
	// (the paper's -25% observation) while the balanced one recovers.
	last := tb.Rows[len(tb.Rows)-1]
	if cell(t, last[3]) >= cell(t, last[2]) {
		t.Fatalf("no-LB HB+ should trail CPU-opt on M2 at scale: %v", last)
	}
	if cell(t, last[4]) <= cell(t, last[3]) {
		t.Fatalf("balanced HB+ should beat unbalanced: %v", last)
	}
}

func TestFig19Shapes(t *testing.T) {
	tb := runFig(t, "fig19")[0]
	for _, r := range tb.Rows {
		if cell(t, r[2]) > cell(t, r[1])*1.02 {
			t.Fatalf("HB+ CPU-only should not beat the CPU-optimized tree: %v", r)
		}
	}
}

func TestFig20Shapes(t *testing.T) {
	tb := runFig(t, "fig20")[0]
	// Throughput grows to depth 16 then flattens; latency keeps rising.
	var d16, d32, d1 float64
	var lat1, lat16 float64
	for _, r := range tb.Rows {
		switch r[0] {
		case "1":
			d1, lat1 = cell(t, r[1]), cell(t, r[2])
		case "16":
			d16, lat16 = cell(t, r[1]), cell(t, r[2])
		case "32":
			d32 = cell(t, r[1])
		}
	}
	if d16 <= d1 || d32 > d16*1.05 {
		t.Fatalf("pipelining throughput shape wrong: 1=%v 16=%v 32=%v", d1, d16, d32)
	}
	if lat16 <= lat1 {
		t.Fatalf("latency did not grow with depth: %v vs %v", lat1, lat16)
	}
}

func TestFig21Shapes(t *testing.T) {
	tb := runFig(t, "fig21")[0]
	// Sync decays at least as fast as async as the update ratio grows.
	firstAsync, firstSync := cell(t, tb.Rows[0][1]), cell(t, tb.Rows[0][2])
	lastAsync, lastSync := cell(t, tb.Rows[len(tb.Rows)-1][1]), cell(t, tb.Rows[len(tb.Rows)-1][2])
	if lastSync/firstSync > lastAsync/firstAsync*1.05 {
		t.Fatalf("sync should decay faster: async %v->%v, sync %v->%v",
			firstAsync, lastAsync, firstSync, lastSync)
	}
}

func TestTraceShapes(t *testing.T) {
	tables := runFig(t, "fig5-6")
	if len(tables) != 3 {
		t.Fatalf("expected 3 strategy charts, got %d", len(tables))
	}
	for _, tb := range tables {
		joined := ""
		for _, r := range tb.Rows {
			joined += r[0] + "\n"
		}
		for _, res := range []string{"CPU", "PCIeH2D", "GPU", "PCIeD2H"} {
			if !strings.Contains(joined, res) {
				t.Fatalf("%s: missing %s lane", tb.ID, res)
			}
		}
		if !strings.Contains(joined, "#") {
			t.Fatalf("%s: no occupancy drawn", tb.ID)
		}
	}
}

func TestExtUpdateShapes(t *testing.T) {
	tb := runFig(t, "ext-update")[0]
	for _, r := range tb.Rows {
		if cell(t, r[3]) <= 1.0 {
			t.Fatalf("GPU-assisted updates not faster: %v", r)
		}
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll is too slow for -short mode")
	}
	var buf bytes.Buffer
	cfg := Config{Quick: true, Sizes: []int{1 << 14}, Queries: 1 << 14}
	if err := RunAll(cfg, &buf); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if !strings.Contains(buf.String(), id) {
			t.Fatalf("RunAll output missing %s", id)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	tb := Table{ID: "x", Title: "ti,tle", Cols: []string{"a", "b"}}
	tb.AddRow("1", "2,3")
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# x") || !strings.Contains(out, `"2,3"`) {
		t.Fatalf("csv output wrong: %q", out)
	}
}
