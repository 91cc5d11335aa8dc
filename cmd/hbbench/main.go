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
//	hbbench -wall -clients 8 -update-frac 0.1 -wall-duration 2s
//
// Sizes accept K/M/G suffixes (powers of two).
//
// With -wall the command leaves the paper's virtual clock and measures
// the serving layer on the host's: pipelined clients drive lookups
// through the coalescer (plus an optional batched update mix) against
// the single-tree snapshot server and — with -shards T — the key-space
// sharded server, reporting real MQPS, latency
// percentiles and per-shard swap/update counts.
// -cpuprofile/-memprofile capture pprof profiles of any mode.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"hbtree"
	"hbtree/internal/harness"
	"hbtree/internal/serve"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available experiments and exit")
		run     = flag.String("run", "all", "experiment id (fig7..fig21) or 'all'")
		machine = flag.String("machine", "M1", "platform model: M1 or M2")
		sizes   = flag.String("sizes", "", "comma-separated dataset sizes (e.g. 1M,4M,16M)")
		queries = flag.Int("queries", 0, "search queries per measurement")
		seed    = flag.Uint64("seed", 42, "workload seed")
		quick   = flag.Bool("quick", false, "small sizes for a fast smoke run")
		format  = flag.String("format", "table", "output format: table or csv")

		wall       = flag.Bool("wall", false, "run the wall-clock serving benchmark instead of a paper experiment")
		wallN      = flag.Int("wall-n", 1<<20, "tuples in the wall-clock tree")
		wallDur    = flag.Duration("wall-duration", time.Second, "measurement length per configuration")
		clients    = flag.Int("clients", 8, "concurrent client goroutines (-wall)")
		updateFrac = flag.Float64("update-frac", 0, "fraction of client ops routed to batched updates (-wall; uses the regular variant)")
		rebuildEvr = flag.Duration("rebuild-every", 0, "rebuild the tree on this period (-wall; implicit variant)")
		wallShards = flag.Int("shards", 0, "also run the key-space sharded configuration with this many shards (-wall; 0 = skip)")
		updateSkew = flag.Float64("update-skew", 0, "fraction of updates drawn from the hottest key-space quarter (-wall)")
		rebalance  = flag.Bool("rebalance", false, "run the sharded configuration with the online rebalancer armed (-wall; requires -shards > 1)")
		coalesceB  = flag.Int("coalesce-batch", 0, "coalescer flush size (-wall; 0 = the 1024 default)")
		scenario   = flag.String("wall-scenario", "", "overload scenario instead of the steady -wall mix: flash | diurnal | hot-shift (per-phase latency rows)")
		targetP99  = flag.Duration("target-p99", 0, "adaptive admission latency target (-wall / -wall-scenario; 0 = static admission)")
		minPend    = flag.Int("coalesce-min", 0, "adaptive admission window floor (0 = pending/64)")
		pending    = flag.Int("coalesce-pending", 0, "admission window ceiling (-wall / -wall-scenario; 0 = unbounded / scenario default)")
		staticAdm  = flag.Bool("static-admission", false, "force the static admission arm (A/B switch: overrides -target-p99 to 0)")
		flushStall = flag.Duration("flush-stall", 0, "serialized per-flush stall pinning coalescer capacity for reproducible overload runs")
		benchJSON  = flag.String("bench-json", "", "directory to write one machine-readable BENCH_<name>.json per -wall configuration")
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

	if *wall {
		p := wallParams{
			n:            *wallN,
			seed:         *seed,
			clients:      *clients,
			dur:          *wallDur,
			updateFrac:   *updateFrac,
			rebuildEvery: *rebuildEvr,
			shards:       *wallShards,
			updateSkew:   *updateSkew,
			rebalance:    *rebalance,
			maxBatch:     *coalesceB,
			scenario:     *scenario,
			targetP99:    *targetP99,
			minPending:   *minPend,
			maxPending:   *pending,
			staticAdm:    *staticAdm,
			flushStall:   *flushStall,
			jsonDir:      *benchJSON,
		}
		if p.staticAdm {
			p.targetP99 = 0
		}
		if err := runWall(p); err != nil {
			fmt.Fprintln(os.Stderr, "hbbench:", err)
			os.Exit(1)
		}
		return
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

// wallParams carries the -wall flag set into runWall.
type wallParams struct {
	n            int
	seed         uint64
	clients      int
	dur          time.Duration
	updateFrac   float64
	rebuildEvery time.Duration
	shards       int
	updateSkew   float64
	rebalance    bool
	maxBatch     int
	scenario     string
	targetP99    time.Duration
	minPending   int
	maxPending   int
	staticAdm    bool
	flushStall   time.Duration
	jsonDir      string
}

// benchRecord is the machine-readable form of one configuration's
// result, written as BENCH_<name>.json for CI gates and regression
// tracking.
type benchRecord struct {
	Name            string  `json:"name"`
	Tuples          int     `json:"tuples"`
	Clients         int     `json:"clients"`
	MaxBatch        int     `json:"max_batch"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	ElapsedNs       int64   `json:"elapsed_ns"`
	Lookups         int64   `json:"lookups"`
	Updates         int64   `json:"updates"`
	MQPS            float64 `json:"mqps"`
	P50Ns           int64   `json:"p50_ns"`
	P95Ns           int64   `json:"p95_ns"`
	P99Ns           int64   `json:"p99_ns"`
	AllocsPerLookup float64 `json:"allocs_per_lookup"`
	Batches         int64   `json:"batches"`
	Folded          int64   `json:"folded"`
	NodeProbes      int64   `json:"node_probes"`
	ProbesSaved     int64   `json:"probes_saved"`

	// Layout names the inner-node geometry the run was built with
	// ("uniform" or "tuned"), LevelWidths is the realised per-level
	// key-slot table (root first), and LineBytes the probe-weighted
	// device-line traffic (NodeProbes × 64).
	Layout      string `json:"layout,omitempty"`
	LevelWidths []int  `json:"level_widths,omitempty"`
	LineBytes   int64  `json:"line_bytes,omitempty"`
	Shards      int    `json:"shards,omitempty"`

	// Write-path accounting (non-zero only with -update-frac > 0).
	UpdateMQPS      float64 `json:"update_mqps,omitempty"`
	InPlaceBatches  int64   `json:"in_place_batches,omitempty"`
	CloneFallbacks  int64   `json:"clone_fallbacks,omitempty"`
	ClonedNodes     int64   `json:"cloned_nodes,omitempty"`
	ClonedBytes     int64   `json:"cloned_bytes,omitempty"`
	DuringWriteP99N int64   `json:"during_write_p99_ns,omitempty"`

	// Admission-control telemetry (non-zero only with shedding or an
	// adaptive -target-p99 arm; omitted otherwise so static records are
	// byte-identical to the pre-adaptive format).
	Shed        int64   `json:"shed,omitempty"`
	ShedRate    float64 `json:"shed_rate,omitempty"`
	AdmitWindow int     `json:"admit_window,omitempty"`
	TargetP99Ns int64   `json:"target_p99_ns,omitempty"`

	// Scenario runs (-wall-scenario) add the traffic shape, which
	// admission arm ran, and the per-phase latency rows.
	Scenario        string        `json:"scenario,omitempty"`
	StaticAdmission bool          `json:"static_admission,omitempty"`
	Phases          []phaseRecord `json:"phases,omitempty"`
}

// phaseRecord is one scenario phase's slice of a benchRecord.
type phaseRecord struct {
	Name    string `json:"name"`
	Lookups int64  `json:"lookups"`
	Shed    int64  `json:"shed"`
	Updates int64  `json:"updates"`
	P50Ns   int64  `json:"p50_ns"`
	P95Ns   int64  `json:"p95_ns"`
	P99Ns   int64  `json:"p99_ns"`
}

// writeBenchJSON writes one configuration's record as
// <dir>/BENCH_<name>.json.
func writeBenchJSON(dir string, rec benchRecord) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_"+rec.Name+".json"), append(data, '\n'), 0o644)
}

// wallCfg names one serving configuration of a -wall run.
type wallCfg struct {
	name   string
	shards int
}

// wallConfigs lists the configurations a -wall or -wall-scenario run
// covers: the single-tree server, plus the sharded one with shards > 1.
func wallConfigs(shards int) []wallCfg {
	cfgs := []wallCfg{{"fast", 0}}
	if shards > 1 {
		cfgs = append(cfgs, wallCfg{"sharded", shards})
	}
	return cfgs
}

// runWall measures wall-clock serving throughput and latency for the
// single-tree snapshot server and (with shards > 1) the key-space
// sharded server under the same client mix, printing one row per
// configuration plus a per-shard breakdown for the sharded run. With
// -bench-json each row is also written as BENCH_<name>.json.
func runWall(p wallParams) error {
	if p.scenario != "" {
		return runScenario(p)
	}
	if p.updateFrac > 0 && p.rebuildEvery > 0 {
		return fmt.Errorf("-update-frac and -rebuild-every are mutually exclusive")
	}
	if p.rebalance && p.shards <= 1 {
		return fmt.Errorf("-rebalance requires -shards > 1")
	}
	treeOpt := hbtree.Options{}
	if p.updateFrac > 0 {
		treeOpt.Variant = hbtree.Regular
	}
	fmt.Printf("wall-clock serving: %d tuples, %d clients, %s per run, update-frac %.2f, rebuild-every %v, shards %d, coalesce-batch %d, GOMAXPROCS %d\n",
		p.n, p.clients, p.dur, p.updateFrac, p.rebuildEvery, p.shards, p.maxBatch, runtime.GOMAXPROCS(0))
	pairs := hbtree.GeneratePairs[uint64](p.n, p.seed)
	for _, cfg := range wallConfigs(p.shards) {
		opt := serve.WallOptions{
			Clients:      p.clients,
			Duration:     p.dur,
			UpdateFrac:   p.updateFrac,
			UpdateSkew:   p.updateSkew,
			RebuildEvery: p.rebuildEvery,
			Shards:       cfg.shards,
			MaxBatch:     p.maxBatch,
			MaxPending:   p.maxPending,
			Shed:         p.maxPending > 0 && p.targetP99 == 0 && p.staticAdm,
			TargetP99:    p.targetP99,
			MinPending:   p.minPending,
			FlushStall:   p.flushStall,
		}
		if p.rebalance && cfg.shards > 1 {
			// Defaults except the poll period: a benchmark-length run
			// needs the detector to act within the measurement.
			opt.Rebalance = &serve.RebalanceOptions{Interval: 10 * time.Millisecond}
		}
		res, err := serve.RunWall(pairs, treeOpt, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		fmt.Printf("  %-13s  %s\n", cfg.name, res)
		if res.Shards > 0 {
			for i := 0; i < res.Shards; i++ {
				fmt.Printf("    shard %d: %d swaps, %d update ops\n", i, res.ShardSwaps[i], res.ShardUpdates[i])
			}
		}
		if p.jsonDir != "" {
			rec := benchRecord{
				Name:            cfg.name,
				Tuples:          p.n,
				Clients:         p.clients,
				MaxBatch:        p.maxBatch,
				GOMAXPROCS:      runtime.GOMAXPROCS(0),
				ElapsedNs:       res.Elapsed.Nanoseconds(),
				Lookups:         res.Lookups,
				Updates:         res.Updates,
				MQPS:            res.MQPS,
				P50Ns:           res.P50.Nanoseconds(),
				P95Ns:           res.P95.Nanoseconds(),
				P99Ns:           res.P99.Nanoseconds(),
				AllocsPerLookup: res.AllocsPerLookup,
				Batches:         res.Batches,
				Folded:          res.Folded,
				NodeProbes:      res.NodeProbes,
				ProbesSaved:     res.ProbesSaved,
				Layout:          res.Layout,
				LevelWidths:     res.LevelWidths,
				LineBytes:       res.LineBytes,
				Shards:          res.Shards,
				UpdateMQPS:      res.UpdateMQPS,
				InPlaceBatches:  res.InPlaceBatches,
				CloneFallbacks:  res.CloneFallbacks,
				ClonedNodes:     res.ClonedNodes,
				ClonedBytes:     res.ClonedBytes,
				DuringWriteP99N: res.DuringWriteP99.Nanoseconds(),
				Shed:            res.Shed,
				ShedRate:        res.ShedRate,
				AdmitWindow:     res.AdmitWindow,
				TargetP99Ns:     res.TargetP99.Nanoseconds(),
				StaticAdmission: p.staticAdm,
			}
			if err := writeBenchJSON(p.jsonDir, rec); err != nil {
				return fmt.Errorf("%s: writing bench json: %w", cfg.name, err)
			}
		}
	}
	return nil
}

// runScenario drives one overload scenario (-wall-scenario) against the
// single-tree snapshot server and (with -shards > 1) the sharded
// server, printing per-phase latency rows per configuration.
// The same command line with -static-admission added replays identical
// offered traffic through a fixed admission window — the A/B pair the
// adaptive controller is judged against.
func runScenario(p wallParams) error {
	if p.rebuildEvery > 0 {
		return fmt.Errorf("-rebuild-every does not apply to -wall-scenario")
	}
	treeOpt := hbtree.Options{}
	if p.updateFrac > 0 || p.scenario == serve.ScenarioHotShift {
		// Hot-shift defaults to a write mix (migration without writes is
		// just a read skew), and any write mix needs the regular variant.
		treeOpt.Variant = hbtree.Regular
	}
	arm := "adaptive"
	if p.targetP99 <= 0 {
		arm = "static"
	}
	fmt.Printf("overload scenario %q (%s admission): %d tuples, base clients %d, %s per run, shards %d, target-p99 %v, flush-stall %v, GOMAXPROCS %d\n",
		p.scenario, arm, p.n, p.clients, p.dur, p.shards, p.targetP99, p.flushStall, runtime.GOMAXPROCS(0))
	pairs := hbtree.GeneratePairs[uint64](p.n, p.seed)
	for _, cfg := range wallConfigs(p.shards) {
		opt := serve.ScenarioOptions{
			Kind:        p.scenario,
			BaseClients: p.clients,
			Duration:    p.dur,
			Shards:      cfg.shards,
			MaxBatch:    p.maxBatch,
			MaxPending:  p.maxPending,
			MinPending:  p.minPending,
			TargetP99:   p.targetP99,
			FlushStall:  p.flushStall,
			UpdateFrac:  p.updateFrac,
			Seed:        int64(p.seed),
		}
		res, err := serve.RunWallScenario(pairs, treeOpt, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.name, err)
		}
		fmt.Printf("  %-8s %s\n", cfg.name, res)
		if p.jsonDir != "" {
			rec := benchRecord{
				Name:            p.scenario + "-" + cfg.name + "-" + arm,
				Tuples:          p.n,
				Clients:         p.clients,
				MaxBatch:        p.maxBatch,
				GOMAXPROCS:      runtime.GOMAXPROCS(0),
				ElapsedNs:       res.Elapsed.Nanoseconds(),
				Lookups:         res.Lookups,
				Updates:         res.Updates,
				MQPS:            res.MQPS,
				Batches:         res.Batches,
				Shards:          cfg.shards,
				Shed:            res.Shed,
				ShedRate:        res.ShedRate,
				AdmitWindow:     res.AdmitFinal,
				TargetP99Ns:     res.TargetP99.Nanoseconds(),
				Scenario:        p.scenario,
				StaticAdmission: p.targetP99 <= 0,
			}
			for _, ph := range res.Phases {
				rec.Phases = append(rec.Phases, phaseRecord{
					Name:    ph.Name,
					Lookups: ph.Lookups,
					Shed:    ph.Shed,
					Updates: ph.Updates,
					P50Ns:   ph.P50.Nanoseconds(),
					P95Ns:   ph.P95.Nanoseconds(),
					P99Ns:   ph.P99.Nanoseconds(),
				})
			}
			if err := writeBenchJSON(p.jsonDir, rec); err != nil {
				return fmt.Errorf("%s: writing bench json: %w", cfg.name, err)
			}
		}
	}
	return nil
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
