// Command hbbench regenerates the tables and figures of the paper's
// evaluation (Figures 7-21). Each experiment builds the required trees,
// executes the workload functionally on the simulated platform, and
// prints the same rows/series the paper plots.
//
// Usage:
//
//	hbbench -list
//	hbbench -run fig16 -machine M1 -sizes 1M,4M,16M -queries 524288
//	hbbench -run all -quick
//
// Sizes accept K/M/G suffixes (powers of two). Every number it prints is
// on the paper's virtual clock; host-clock serving measurements live in
// benchmark/. -cpuprofile/-memprofile capture pprof profiles of a run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"hbtree/internal/harness"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		run        = flag.String("run", "all", "experiment id (fig7..fig21) or 'all'")
		machine    = flag.String("machine", "M1", "platform model: M1 or M2")
		sizes      = flag.String("sizes", "", "comma-separated dataset sizes (e.g. 1M,4M,16M)")
		queries    = flag.Int("queries", 0, "search queries per measurement")
		seed       = flag.Uint64("seed", 42, "workload seed")
		quick      = flag.Bool("quick", false, "small sizes for a fast smoke run")
		format     = flag.String("format", "table", "output format: table or csv")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbbench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hbbench:", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hbbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hbbench:", err)
			}
		}()
	}

	if *list {
		for _, id := range harness.IDs() {
			title, _ := harness.Describe(id)
			fmt.Printf("  %-6s  %s\n", id, title)
		}
		return
	}

	cfg := harness.Config{
		Machine: *machine,
		Queries: *queries,
		Seed:    *seed,
		Quick:   *quick,
	}
	if *sizes != "" {
		parsed, err := parseSizes(*sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbbench:", err)
			os.Exit(2)
		}
		cfg.Sizes = parsed
	}

	emit := func(tables []harness.Table) error {
		for i := range tables {
			if *format == "csv" {
				if err := tables[i].WriteCSV(os.Stdout); err != nil {
					return err
				}
				fmt.Println()
				continue
			}
			tables[i].Fprint(os.Stdout)
		}
		return nil
	}

	if *run == "all" {
		if *format == "csv" {
			for _, id := range harness.IDs() {
				tables, err := harness.Run(id, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "hbbench:", err)
					os.Exit(1)
				}
				if err := emit(tables); err != nil {
					fmt.Fprintln(os.Stderr, "hbbench:", err)
					os.Exit(1)
				}
			}
			return
		}
		if err := harness.RunAll(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hbbench:", err)
			os.Exit(1)
		}
		return
	}
	tables, err := harness.Run(*run, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		os.Exit(1)
	}
	if err := emit(tables); err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		os.Exit(1)
	}
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		mult := 1
		switch {
		case strings.HasSuffix(part, "K"), strings.HasSuffix(part, "k"):
			mult = 1 << 10
			part = part[:len(part)-1]
		case strings.HasSuffix(part, "M"), strings.HasSuffix(part, "m"):
			mult = 1 << 20
			part = part[:len(part)-1]
		case strings.HasSuffix(part, "G"), strings.HasSuffix(part, "g"):
			mult = 1 << 30
			part = part[:len(part)-1]
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q: %w", part, err)
		}
		out = append(out, v*mult)
	}
	return out, nil
}
