package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"

	"hbtree/benchmark/kit"
)

// manifest is BENCHMARK.json. The metric tables and the workload list
// in this program are its source: -manifest prints the file from them,
// and TestManifestMatchesTables fails when the committed file differs.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

// runSeconds is the measured time of one run: 8 s with one request
// outstanding per connection, 12 s pipelined; lib-batch loops for all 20.
const runSeconds = 20

// wantManifest builds BENCHMARK.json from the tables.
func wantManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range kit.Workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, x := range endToEnd {
		b := x.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: x.Name, Unit: x.Unit, Better: x.Better, Bound: &b})
	}
	for _, x := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: x.Name, Unit: x.Unit, Better: x.Better})
	}
	return m
}

// manifestJSON renders a manifest as the committed file.
func manifestJSON(m manifest) []byte {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and floats
	}
	return append(data, '\n')
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if m.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds %d", path, m.RunSeconds)
	}
	return &m, nil
}

// fingerprint says where and how a report was measured. Reports whose
// CPU count or phase lengths differ are not comparable.
type fingerprint struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"git_commit"`
	Dirty      bool    `json:"git_dirty"`
	Seconds    float64 `json:"seconds"`
	WarmS      float64 `json:"warm_s"`
	RttS       float64 `json:"rtt_s"`
	PipeS      float64 `json:"pipe_s"`
	Smoke      bool    `json:"smoke"`
}

func newFingerprint(root string, seconds float64, smoke bool) fingerprint {
	warm, rtt, pipe := runOpts{seconds: seconds, smoke: smoke}.phases()
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
		Commit:     "unknown", // a checkout without .git, as the driver's is
		Seconds:    seconds,
		WarmS:      warm.Seconds(),
		RttS:       rtt.Seconds(),
		PipeS:      pipe.Seconds(),
		Smoke:      smoke,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(data))
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if top, err := git("rev-parse", "--show-toplevel"); err == nil && top == root {
		if c, err := git("rev-parse", "HEAD"); err == nil {
			fp.Commit = c
		}
		if st, err := git("status", "--porcelain"); err == nil {
			fp.Dirty = st != ""
		}
	}
	return fp
}

// summary is one metric over the runs of one workload.
type summary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"` // (q3-q1)/median, the figure a bound is compared with
}

type workloadReport struct {
	Runs    []*result          `json:"runs"`
	Summary map[string]summary `json:"summary"`
}

// report is the result file: one or more runs of one or more workloads.
type report struct {
	Fingerprint fingerprint                `json:"fingerprint"`
	Workloads   map[string]*workloadReport `json:"workloads"`
}

func newReport(root string, seconds float64, smoke bool) *report {
	return &report{Fingerprint: newFingerprint(root, seconds, smoke), Workloads: map[string]*workloadReport{}}
}

func (r *report) add(res *result) {
	w := r.Workloads[res.Workload]
	if w == nil {
		w = &workloadReport{}
		r.Workloads[res.Workload] = w
	}
	w.Runs = append(w.Runs, res)
}

func (r *report) summarise() {
	for _, w := range r.Workloads {
		w.Summary = map[string]summary{}
		vals := map[string][]float64{}
		for _, run := range w.Runs {
			for name, v := range run.Metrics {
				vals[name] = append(vals[name], v.Value)
			}
		}
		for name, xs := range vals {
			m := metricByName[name]
			q1, _, q3 := kit.Quartiles(xs)
			w.Summary[name] = summary{Unit: m.Unit, Better: m.Better, Bound: m.Bound, N: len(xs),
				Median: kit.Median(xs), Q1: q1, Q3: q3, Spread: kit.Spread(xs)}
		}
	}
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// tableOrder lists a result's metric names in table order.
func tableOrder(have func(string) bool) []string {
	var names []string
	for _, t := range [][]metric{endToEnd, perLayer} {
		for _, m := range t {
			if have(m.Name) {
				names = append(names, m.Name)
			}
		}
	}
	return names
}

func printResult(res *result) {
	mode := "end to end"
	if res.Traced {
		mode = "traced"
	}
	fmt.Printf("\n== %s  seed %d  (%s)  correct=%t  attempted=%d  failed=%d\n",
		res.Workload, res.Seed, mode, res.Correct, res.Attempted, res.Failed)
	if res.FirstError != "" {
		fmt.Printf("   first failure: %s\n", res.FirstError)
	}
	for _, name := range tableOrder(func(n string) bool { _, ok := res.Metrics[n]; return ok }) {
		v := res.Metrics[name]
		fmt.Printf("   %-34s %16.4f %-6s", name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Printf(" n=%d", v.Samples)
		}
		fmt.Println()
	}
	for _, n := range res.Notes {
		fmt.Printf("   note: %s\n", n)
	}
}

func (r *report) workloadNames() []string {
	var names []string
	for _, w := range kit.Workloads {
		if _, ok := r.Workloads[w.Name]; ok {
			names = append(names, w.Name)
		}
	}
	return names
}

// printSummary is the noise calibration: per metric the median, the
// quartiles and the spread next to its bound.
func (r *report) printSummary() {
	fmt.Printf("\n%-20s %-12s %3s %14s %14s %14s %8s %6s\n", "workload", "metric", "n", "median", "q1", "q3", "spread", "bound")
	for _, wn := range r.workloadNames() {
		w := r.Workloads[wn]
		for _, name := range tableOrder(func(n string) bool { _, ok := w.Summary[n]; return ok }) {
			s := w.Summary[name]
			flag := ""
			if s.Bound > 0 && s.Spread > s.Bound/3 {
				flag = "  spread above a third of the bound"
			}
			fmt.Printf("%-20s %-12s %3d %14.4f %14.4f %14.4f %8.4f %6.2f%s\n", wn, name, s.N, s.Median, s.Q1, s.Q3, s.Spread, s.Bound, flag)
		}
	}
}

// minRuns is how many runs a side needs before -compare gives a
// verdict on a bounded metric: with fewer the quartiles say nothing
// about the noise, and one sample a side would always read as resolved.
const minRuns = 5

// compareReports prints one row per workload and metric of the old
// report that has a rule: an end-to-end metric is held to its bound, an
// exact per-layer metric (traced reports) must be identical on every
// seed both reports ran. A workload or metric the new report lacks is a
// failure, not a skipped row. It returns the exit code: 1 when anything
// regressed, differs, failed or is missing, 2 when the reports are not
// comparable.
func compareReports(oldPath, newPath string) int {
	old, err := readReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	cur, err := readReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	a, b := old.Fingerprint, cur.Fingerprint
	if a.NProc != b.NProc || a.Seconds != b.Seconds || a.WarmS != b.WarmS || a.RttS != b.RttS || a.PipeS != b.PipeS || a.Smoke != b.Smoke {
		fmt.Fprintf(os.Stderr, "benchmark: reports are not comparable: nproc %d vs %d, phases %v/%v/%v vs %v/%v/%v s\n",
			a.NProc, b.NProc, a.WarmS, a.RttS, a.PipeS, b.WarmS, b.RttS, b.PipeS)
		return 2
	}
	code := 0
	const row = "%-20s %-26s %14.4f %14.4f %9s %6s  %s\n"
	fmt.Printf("%-20s %-26s %14s %14s %9s %6s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, wn := range old.workloadNames() {
		ow, nw := old.Workloads[wn], cur.Workloads[wn]
		if nw == nil {
			fmt.Printf("%-20s missing from the new report — REGRESSION\n", wn)
			code = 1
			continue
		}
		for _, name := range tableOrder(func(n string) bool { _, ok := ow.Summary[n]; return ok }) {
			m := metricByName[name]
			if m.Bound == 0 && !m.Exact {
				continue // a timing of one layer: reported, not judged
			}
			o := ow.Summary[name]
			n, ok := nw.Summary[name]
			if !ok {
				fmt.Printf("%-20s %-26s missing from the new report — REGRESSION\n", wn, name)
				code = 1
				continue
			}
			if m.Exact {
				verdict, bad := compareExact(ow, nw, name)
				if bad {
					code = 1
				}
				fmt.Printf(row, wn, name, o.Median, n.Median, "", "exact", verdict)
				continue
			}
			worse := (n.Median - o.Median) / o.Median // an old median of 0 gives Inf or NaN: caught below
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case o.Median == 0:
				verdict = "REGRESSION (the old median is 0: nothing to hold the new one to)"
				code = 1
			case o.N < minRuns || n.N < minRuns:
				verdict = fmt.Sprintf("unresolved (%d and %d runs; a verdict needs %d a side)", o.N, n.N, minRuns)
			case o.Spread > m.Bound || n.Spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f exceeds the bound)", o.Spread, n.Spread)
			case worse > m.Bound:
				verdict = "REGRESSION"
				code = 1
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf(row, wn, name, o.Median, n.Median, fmt.Sprintf("%+.1f%%", 100*worse), fmt.Sprintf("%.2f", m.Bound), verdict)
		}
		for _, side := range []*workloadReport{ow, nw} {
			for _, run := range side.Runs {
				if run.Failed > 0 {
					fmt.Printf("%-20s seed %d: %d of %d ops failed — REGRESSION\n", wn, run.Seed, run.Failed, run.Attempted)
					code = 1
				}
			}
		}
	}
	return code
}

// compareExact holds an exact metric to equality on every seed both
// sides ran: it is a count or a virtual-clock figure, so any difference
// is a change of behaviour, not noise.
func compareExact(ow, nw *workloadReport, name string) (verdict string, bad bool) {
	bySeed := map[uint64]float64{}
	for _, run := range nw.Runs {
		if v, ok := run.Metrics[name]; ok {
			bySeed[run.Seed] = v.Value
		}
	}
	common, differ := 0, 0
	for _, run := range ow.Runs {
		v, ok1 := run.Metrics[name]
		nv, ok2 := bySeed[run.Seed]
		if ok1 && ok2 {
			common++
			if v.Value != nv {
				differ++
			}
		}
	}
	switch {
	case common == 0:
		return "unresolved (no seed in common)", false
	case differ > 0:
		return fmt.Sprintf("DIFFERS on %d of %d seeds — REGRESSION", differ, common), true
	}
	return fmt.Sprintf("identical (%d common seeds)", common), false
}
