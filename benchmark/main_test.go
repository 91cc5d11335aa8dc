package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbtree/benchmark/kit"
)

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in this
// program in step: the names, units, directions and bounds every later
// change is judged by live in both.
func TestManifestMatchesTables(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := manifestJSON(wantManifest()); !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate it with `bash benchmark/run.sh -manifest > BENCHMARK.json`\n--- want\n%s", want)
	}
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, x := range append(m.EndToEnd, m.PerLayer...) {
		if seen[x.Name] {
			t.Errorf("metric %s is registered twice", x.Name)
		}
		seen[x.Name] = true
	}
	for _, x := range m.EndToEnd {
		if x.Bound == nil || *x.Bound <= 0 || *x.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", x.Name, x.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
}

// smokeEnv builds the binaries once for the smoke tests.
func smokeEnv(t *testing.T) *env {
	t.Helper()
	e, err := newEnv("..", true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// TestSmokeEndToEnd runs all four workloads in the smoke configuration:
// every reply checked, the durable one killed and recovered — and run
// twice, as -repeat does: the second server must not find the first
// one's data dir.
func TestSmokeEndToEnd(t *testing.T) {
	e := smokeEnv(t)
	durable, _ := kit.Find("wire-mixed-durable")
	for i, w := range append(kit.Workloads[:len(kit.Workloads):len(kit.Workloads)], durable) {
		res, err := run(e, runOpts{w: w, seed: 11 + uint64(i), seconds: 0.5, smoke: true})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%t attempted=%d failed=%d: %s", w.Name, res.Correct, res.Attempted, res.Failed, res.FirstError)
		}
		line := driverLine(res)
		metrics := line["metrics"].(map[string]any)
		for _, m := range endToEnd {
			v, ok := metrics[m.Name].(map[string]any)
			if !ok || v["value"].(float64) <= 0 || v["unit"] != m.Unit {
				t.Errorf("%s: %s = %v, want a positive value in %s", w.Name, m.Name, metrics[m.Name], m.Unit)
			}
		}
		if w.Durable && !strings.Contains(strings.Join(res.Notes, "\n"), "ops replayed") {
			t.Errorf("%s: no recovery in the notes: %v", w.Name, res.Notes)
		}
	}
}

// TestSmokeTraced runs one ladder pass: every per-layer metric is
// produced, the trace file is written, and the self-time tables
// telescope.
func TestSmokeTraced(t *testing.T) {
	e := smokeEnv(t)
	w, _ := kit.Find("wire-mixed-durable")
	res, err := run(e, runOpts{w: w, seed: 11, seconds: 0.5, smoke: true, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%t failed=%d: %s", res.Correct, res.Failed, res.FirstError)
	}
	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			t.Errorf("no %s", m.Name)
		}
	}
	if res.Metrics["hbserve.get_self_ns"].Value <= res.Metrics["serve.lookup_ns"].Value {
		t.Errorf("the wire (%v ns) should dwarf Server.Lookup (%v ns)",
			res.Metrics["hbserve.get_self_ns"].Value, res.Metrics["serve.lookup_ns"].Value)
	}
	spans, err := kit.ReadTrace(filepath.Join(e.outDir, "trace-"+w.Name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	rows := kit.SelfTimes(spans)
	byName := map[string]kit.SelfRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, top := range []string{"hbserve.get", "hbserve.put", "core.batch"} {
		sum := 0.0
		var walk func(string)
		walk = func(n string) {
			sum += byName[n].SelfNs
			for _, r := range rows {
				if r.Parent == n {
					walk(r.Name)
				}
			}
		}
		walk(top)
		if span := byName[top].SpanNs; span <= 0 || sum < 0.9*span || sum > 1.1*span {
			t.Errorf("%s: self times sum to %v, top span %v", top, sum, span)
		}
	}
}

func TestStatisticsOfARun(t *testing.T) {
	if got := sustained([]float64{100, 90, 80, 70, 10, 20, 30, 40, 50, 60}); got != 90 {
		t.Errorf("sustained = %v, want the 90th percentile 90", got)
	}
	// Calls of 10 ms with 100 queries each: a chunk closes once 25 ms of
	// timed work has accumulated, i.e. every three calls.
	durs := []int64{10e6, 10e6, 10e6, 10e6, 10e6, 10e6, 10e6}
	rates := busyRates(durs, 100, 25e6)
	if len(rates) != 2 || rates[0] != 10000 || rates[1] != 10000 {
		t.Errorf("busyRates = %v, want two chunks of 10000 queries/s", rates)
	}
	if w := window(12e9); w != 500e6 {
		t.Errorf("window of a 12 s phase = %v", w)
	}
	if w := window(300e6); w != 75e6 {
		t.Errorf("window of a 300 ms phase = %v", w)
	}
	if got := field("STATS pairs=10 batches=4 batched=6 layout=uniform", "batched"); got != 6 {
		t.Errorf("field = %v", got)
	}
}

// writeReport writes a report of one workload with one run per qps
// value; extra holds further metrics every run carries.
func writeReport(t *testing.T, name, workload string, fp fingerprint, qps []float64, failed int, extra map[string]float64) string {
	t.Helper()
	r := &report{Fingerprint: fp, Workloads: map[string]*workloadReport{}}
	for i, q := range qps {
		res := &result{Workload: workload, Seed: uint64(i), Correct: failed == 0, Attempted: 1000, Failed: failed,
			Metrics: map[string]value{"qps": {Value: q, Unit: "1/s"}}}
		for k, v := range extra {
			res.Metrics[k] = value{Value: v, Unit: metricByName[k].Unit}
		}
		r.add(res)
	}
	r.summarise()
	path := filepath.Join(t.TempDir(), name)
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	fp := fingerprint{NProc: 2, Seconds: 20, WarmS: 1, RttS: 8, PipeS: 12}
	steady := []float64{100, 101, 99, 100, 102}
	p50 := map[string]float64{"p50_us": 30}
	against := func(base string, want int, what, workload string, fp fingerprint, qps []float64, failed int, extra map[string]float64) {
		t.Helper()
		if code := compareReports(base, writeReport(t, "new.json", workload, fp, qps, failed, extra)); code != want {
			t.Errorf("%s: exit %d, want %d", what, code, want)
		}
	}
	base := writeReport(t, "base.json", "wire-get", fp, steady, 0, p50)
	against(base, 0, "identical reports", "wire-get", fp, steady, 0, p50)
	against(base, 1, "a 40 % throughput loss", "wire-get", fp, []float64{60, 61, 59, 60, 62}, 0, p50)
	against(base, 0, "a gain", "wire-get", fp, []float64{160, 161, 159, 160, 162}, 0, p50)
	// A loss inside a spread wider than the bound is unresolved, not a regression.
	against(base, 0, "noisy report", "wire-get", fp, []float64{20, 60, 70, 110, 150}, 0, p50)
	// So is a loss seen in fewer than minRuns runs: one sample has no spread to doubt.
	against(base, 0, "one run a side", "wire-get", fp, []float64{60}, 0, p50)
	against(base, 1, "failed ops", "wire-get", fp, steady, 3, p50)
	against(base, 1, "a workload the new report dropped", "lib-batch", fp, steady, 0, p50)
	against(base, 1, "a metric the new report dropped", "wire-get", fp, steady, 0, nil)
	against(writeReport(t, "zero.json", "wire-get", fp, steady, 0, map[string]float64{"p50_us": 0}),
		1, "an old median of 0", "wire-get", fp, steady, 0, p50)
	other := fp
	other.NProc = 8
	against(base, 2, "different nproc", "wire-get", other, steady, 0, p50)
	other = fp
	other.PipeS = 3
	against(base, 2, "different phase lengths", "wire-get", other, steady, 0, p50)

	// Traced reports: an exact count must repeat on every common seed; a
	// layer's timing is reported, never judged.
	traced := writeReport(t, "traced.json", "wire-get", fp, steady[:1], 0, map[string]float64{"gpusim.trans_per_q": 6, "serve.lookup_ns": 300})
	against(traced, 0, "same count, slower layer", "wire-get", fp, steady[:1], 0, map[string]float64{"gpusim.trans_per_q": 6, "serve.lookup_ns": 900})
	against(traced, 1, "a count that moved", "wire-get", fp, steady[:1], 0, map[string]float64{"gpusim.trans_per_q": 7, "serve.lookup_ns": 300})
}
