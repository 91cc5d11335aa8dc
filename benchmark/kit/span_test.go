package kit

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSelfTimesTelescope(t *testing.T) {
	var spans []Span
	// Two request groups. Top rung: per-op spans (n=1), 4 ops per group,
	// 1000 ns each. Middle rung: one block span per group covering the 4
	// ops in 1200 ns (300 per op). Two leaves under it: 400 and 200 ns
	// per block (100 and 50 per op).
	for req := 0; req < 2; req++ {
		for i := 0; i < 4; i++ {
			spans = append(spans, Span{Name: "top", Req: req, N: 1, Start: 0, End: 1000})
		}
		spans = append(spans,
			Span{Name: "mid", Parent: "top", Req: req, N: 4, Start: 10, End: 1210},
			Span{Name: "leafA", Parent: "mid", Req: req, N: 4, Start: 0, End: 400},
			Span{Name: "leafB", Parent: "mid", Req: req, N: 4, Start: 0, End: 200},
		)
	}
	// A third group the lower rungs never replayed must not count.
	spans = append(spans, Span{Name: "top", Req: 2, N: 1, Start: 0, End: 9000})

	rows := map[string]SelfRow{}
	for _, r := range SelfTimes(spans) {
		rows[r.Name] = r
	}
	want := map[string][2]float64{ // span, self per op
		"top":   {1000, 700},
		"mid":   {300, 150},
		"leafA": {100, 100},
		"leafB": {50, 50},
	}
	sum := 0.0
	for name, w := range want {
		r := rows[name]
		if r.Groups != 2 || !near(r.SpanNs, w[0]) || !near(r.SelfNs, w[1]) || !near(r.SelfP50, w[1]) {
			t.Errorf("%s: groups %d span %v self %v p50 %v, want 2 %v %v", name, r.Groups, r.SpanNs, r.SelfNs, r.SelfP50, w[0], w[1])
		}
		sum += r.SelfNs
	}
	if !near(sum, rows["top"].SpanNs) {
		t.Errorf("self times sum to %v, top span is %v", sum, rows["top"].SpanNs)
	}
	table := FormatSelfTable(SelfTimes(spans))
	if !strings.Contains(table, "100.0 % of the top span") {
		t.Errorf("table lacks the telescoping check:\n%s", table)
	}
}

func TestSelfTimesSeveralSpansPerGroup(t *testing.T) {
	// A 64-query batch in 6400 ns, and under it four bucket kernels of
	// 16 queries, 800 ns each: 100 per query above, 50 below.
	spans := []Span{{Name: "batch", Req: 0, N: 64, Start: 0, End: 6400}}
	for b := 0; b < 4; b++ {
		spans = append(spans, Span{Name: "kernel", Parent: "batch", Req: 0, N: 16, Start: 0, End: 800})
	}
	for _, r := range SelfTimes(spans) {
		switch r.Name {
		case "batch":
			if !near(r.SpanNs, 100) || !near(r.SelfNs, 50) {
				t.Errorf("batch span %v self %v, want 100 50", r.SpanNs, r.SelfNs)
			}
		case "kernel":
			if !near(r.SpanNs, 50) {
				t.Errorf("kernel span %v, want 50", r.SpanNs)
			}
		}
	}
	if p50, groups := PerOpP50(spans, "kernel"); !near(p50, 50) || groups != 1 {
		t.Errorf("PerOpP50 = %v over %d groups, want 50 over 1", p50, groups)
	}
}

func TestOrphanRungIsATop(t *testing.T) {
	// A rung whose parent was never recorded heads its own tree.
	spans := []Span{
		{Name: "serve.lookup", Parent: "hbserve.get", Req: 0, N: 2, Start: 0, End: 600},
		{Name: "core.lookup", Parent: "serve.lookup", Req: 0, N: 2, Start: 0, End: 400},
	}
	for _, r := range SelfTimes(spans) {
		if r.Name == "serve.lookup" && (!near(r.SpanNs, 300) || !near(r.SelfNs, 100) || r.Groups != 1) {
			t.Errorf("orphan top: %+v", r)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	spans := []Span{
		{Name: "hbserve.get", Req: 3, N: 1, Start: 5, End: 9},
		{Name: "serve.lookup", Parent: "hbserve.get", Req: 3, N: 64, Start: 10, End: 90},
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTrace(path, "wire-get", 7, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("read back %+v, wrote %+v", got, spans)
	}
}
