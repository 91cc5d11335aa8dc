// Command benchmark is the repository's benchmark: four workloads —
// three over TCP against a real hbserve subprocess, one against the
// hbtree library in-process — with every reply checked, end-to-end
// metrics measured with tracing off, and a separate traced run that
// attributes time to the repo's modules. See README.md.
//
// Run it through benchmark/run.sh, which builds it with a build cache
// inside the checkout:
//
//	bash benchmark/run.sh                      # all workloads, one run each
//	bash benchmark/run.sh -workload wire-get -seed 7 -trace 1
//	bash benchmark/run.sh -repeat 5            # noise calibration
//	bash benchmark/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"

	"hbtree/benchmark/kit"
)

func main() {
	var (
		root     = flag.String("root", "", "checkout root (default: the nearest parent holding BENCHMARK.json)")
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Uint64("seed", 1, "op-stream seed; the dataset seed is fixed")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and trace-<workload>.json instead of end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, ...; the report gains median, quartiles and spread")
		compare  = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
		smoke    = flag.Bool("smoke", false, "tiny datasets and 200 ms phases: checks the machinery, measures nothing")
		out      = flag.String("o", "", "report file (default benchmark/out/report.json)")
		printMan = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it, and exit")
	)
	flag.Parse()
	if *printMan {
		os.Stdout.Write(manifestJSON(wantManifest()))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare old.json new.json")
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1)))
	}
	// The generator is part of the load shape: two Ps for at most two
	// connections.
	runtime.GOMAXPROCS(kit.Conns)
	warnHost()

	if *root == "" {
		*root = findRoot()
	}
	man, err := readManifest(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fatalf("%v", err)
	}
	if *seconds == 0 {
		*seconds = float64(man.RunSeconds)
	}
	if *smoke {
		*seconds = 0.5
	}
	var todo []kit.Workload
	if *workload == "all" {
		todo = kit.Workloads
	} else if w, ok := kit.Find(*workload); ok {
		todo = []kit.Workload{w}
	} else {
		fatalf("unknown workload %q", *workload)
	}

	e, err := newEnv(*root, *trace != 0)
	if err != nil {
		fatalf("%v", err)
	}
	// Every exit path — return, fatal error, SIGINT, SIGTERM — kills the
	// servers and removes the scratch directory.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		e.close()
		os.Exit(130)
	}()
	exit := func(code int) {
		e.close()
		os.Exit(code)
	}

	rep := newReport(e.root, *seconds, *smoke)
	var last *result
	for _, w := range todo {
		for k := 0; k < *repeat; k++ {
			o := runOpts{w: w, seed: *seed + uint64(k), seconds: *seconds, smoke: *smoke, trace: *trace != 0}
			// A report of several runs gives each a generator process of
			// its own, as the driver does: what an earlier run leaves in
			// this one (heap, threads, timers) moves the next one's numbers.
			do := run
			if len(todo)*(*repeat) > 1 {
				do = runInChild
			}
			res, err := do(e, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", w.Name, o.seed, err)
				exit(1)
			}
			rep.add(res)
			printResult(res)
			last = res
		}
	}
	rep.summarise()
	if *repeat > 1 {
		rep.printSummary()
	}
	path := *out
	if path == "" {
		path = filepath.Join(e.outDir, "report.json")
	}
	if err := rep.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		exit(1)
	}
	fmt.Printf("report: %s\n", path)
	if len(todo) == 1 && *repeat == 1 {
		// The driver's contract: the last line of standard output is one
		// JSON object.
		line, err := json.Marshal(driverLine(last))
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			exit(1)
		}
		fmt.Println(string(line))
	}
	exit(0)
}

// runInChild makes one run in a fresh process of this program and
// reads the result from the report it writes. If this process dies the
// kernel sends the child SIGTERM, which it handles as this one does.
func runInChild(e *env, o runOpts) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := e.scratch("run") + ".json"
	args := []string{"-root", e.root, "-workload", o.w.Name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-o", path}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	rep, err := readReport(path)
	if err != nil {
		return nil, err
	}
	w := rep.Workloads[o.w.Name]
	if w == nil || len(w.Runs) != 1 {
		return nil, fmt.Errorf("%s: no run of %s", path, o.w.Name)
	}
	return w.Runs[0], nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// findRoot walks up from the working directory to the checkout root.
func findRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		fatalf("%v", err)
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			fatalf("no BENCHMARK.json in %s or any parent; pass -root", dir)
		}
	}
}

// driverLine is the one-line result the driver parses: with tracing off
// every end-to-end metric, with tracing on every per-layer metric.
func driverLine(r *result) map[string]any {
	table := endToEnd
	if r.Traced {
		table = perLayer
	}
	metrics := make(map[string]any, len(table))
	for _, m := range table {
		v := r.Metrics[m.Name]
		metrics[m.Name] = map[string]any{"value": v.Value, "unit": m.Unit}
	}
	return map[string]any{
		"correct":   r.Correct,
		"attempted": r.Attempted,
		"failed":    r.Failed,
		"metrics":   metrics,
	}
}
