package harness

import (
	"fmt"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/mem"
	"hbtree/internal/model"
	"hbtree/internal/platform"
	"hbtree/internal/simd"
	"hbtree/internal/vclock"
	"hbtree/internal/workload"
)

func init() {
	register("fig10", "Bucket handling strategies (Sec. 6.3, Fig. 10)", runFig10)
	register("fig11", "Bucket size sweep: throughput and latency (Sec. 6.3, Fig. 11)", runFig11)
	register("fig12", "Impact of skewed data (Sec. 6.3, Fig. 12)", runFig12)
	register("fig16", "HB+-tree vs CPU-optimized B+-tree (Sec. 6.4, Fig. 16)", runFig16)
	register("fig17", "Range query throughput (Sec. 6.4, Fig. 17)", runFig17)
}

// buildHB builds an HB+-tree over the dataset with the given options.
func buildHB(pairs []keys.Pair[uint64], opt core.Options) (*core.Tree[uint64], error) {
	return core.Build(pairs, opt)
}

func runFig10(cfg Config) ([]Table, error) {
	m, _ := platform.ByName(cfg.Machine)
	n := cfg.Sizes[len(cfg.Sizes)-1]
	t := Table{
		ID:    "fig10",
		Title: fmt.Sprintf("bucket handling strategies, %s tuples (MQPS)", fmtSize(n)),
		Note:  "paper: pipelining +56% (implicit) / +20% (regular); double buffering +110% over sequential",
		Cols:  []string{"variant", "sequential", "pipelined", "double-buffered", "DB gain"},
	}
	pairs := workload.Dataset[uint64](workload.Uniform, n, cfg.Seed)
	qs := workload.SearchInput(pairs, cfg.Queries, cfg.Seed+1)
	for _, v := range []core.Variant{core.Implicit, core.Regular} {
		var thr [3]float64
		for i, s := range []core.Strategy{core.Sequential, core.Pipelined, core.DoubleBuffered} {
			tr, err := buildHB(pairs, core.Options{Machine: m, Variant: v, Strategy: s})
			if err != nil {
				return nil, err
			}
			vals, fnd, stats, err := tr.LookupBatch(qs)
			if err != nil {
				return nil, err
			}
			if err := verifyHits(qs, vals, fnd); err != nil {
				return nil, fmt.Errorf("fig10 %v/%v: %w", v, s, err)
			}
			thr[i] = stats.ThroughputQPS
			tr.Close()
		}
		t.AddRow(v.String(), fmtMQPS(thr[0]), fmtMQPS(thr[1]), fmtMQPS(thr[2]),
			fmtF((thr[2]/thr[0]-1)*100, 0)+"%")
	}
	return []Table{t}, nil
}

func verifyHits(qs, vals []uint64, fnd []bool) error {
	for i, q := range qs {
		if !fnd[i] || vals[i] != workload.ValueFor(q) {
			return fmt.Errorf("query %d (key %d) returned (%d,%v)", i, q, vals[i], fnd[i])
		}
	}
	return nil
}

func runFig11(cfg Config) ([]Table, error) {
	m, _ := platform.ByName(cfg.Machine)
	n := cfg.Sizes[len(cfg.Sizes)-1]
	thr := Table{
		ID:    "fig11a",
		Title: fmt.Sprintf("bucket size sweep, %s tuples: throughput (MQPS)", fmtSize(n)),
		Cols:  []string{"bucket", "implicit", "regular"},
	}
	lat := Table{
		ID:    "fig11b",
		Title: "bucket size sweep: average latency (ms)",
		Note:  "larger buckets amortise T_init/K_init but raise latency; the paper settles on 16K",
		Cols:  []string{"bucket", "implicit", "regular"},
	}
	pairs := workload.Dataset[uint64](workload.Uniform, n, cfg.Seed)
	for _, bs := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10} {
		// Enough buckets for the pipeline to reach steady state.
		nq := cfg.Queries
		if nq < 16*bs {
			nq = 16 * bs
		}
		qs := workload.SearchInput(pairs, nq, cfg.Seed+1)
		row := []string{fmtSize(bs)}
		latRow := []string{fmtSize(bs)}
		for _, v := range []core.Variant{core.Implicit, core.Regular} {
			tr, err := buildHB(pairs, core.Options{Machine: m, Variant: v, Strategy: core.DoubleBuffered, BucketSize: bs})
			if err != nil {
				return nil, err
			}
			_, _, stats, err := tr.LookupBatch(qs)
			if err != nil {
				return nil, err
			}
			row = append(row, fmtMQPS(stats.ThroughputQPS))
			latRow = append(latRow, fmtF(stats.AvgLatency.Seconds()*1e3, 3))
			tr.Close()
		}
		thr.AddRow(row...)
		lat.AddRow(latRow...)
	}
	return []Table{thr, lat}, nil
}

// leafMissUnderDistribution simulates the LLC behaviour of the CPU leaf
// stage under a query distribution: leaf-line addresses stream through
// the machine's cache model and the resulting miss fraction feeds the
// HB+-tree's cost model (the measurement behind Figure 12's skew gain).
func leafMissUnderDistribution(tr *core.Tree[uint64], cpu platform.CPU, qs []uint64) float64 {
	cache := mem.NewCache(cpu.LLCBytes, cpu.LLCWays)
	misses, total := 0, 0
	touch := func(addr int64) {
		total++
		if !cache.Touch(addr) {
			misses++
		}
	}
	if impl := tr.Implicit(); impl != nil {
		_, lseg := impl.Segments()
		for _, q := range qs {
			l := impl.SearchInner(q)
			touch(lseg.Addr(int64(l) * keys.LineBytes))
		}
	} else {
		reg := tr.Regular()
		_, _, leafSeg := reg.Segments()
		_, _, _, _, _, kpl := reg.InnerArrays()
		lineBytes := int64(kpl * keys.Size[uint64]())
		for _, q := range qs {
			b, c := reg.SearchToLeaf(q)
			touch(leafSeg.Addr(int64(b)*int64(reg.Fanout())*lineBytes + int64(c)*lineBytes))
		}
	}
	if total == 0 {
		return 1
	}
	return float64(misses) / float64(total)
}

func runFig12(cfg Config) ([]Table, error) {
	m, _ := platform.ByName(cfg.Machine)
	n := cfg.Sizes[len(cfg.Sizes)-1]
	t := Table{
		ID:    "fig12",
		Title: fmt.Sprintf("query distributions, %s tuples (throughput normalised to Uniform)", fmtSize(n)),
		Note:  "skew concentrates leaf accesses, raising the cache hit rate; the paper sees <=1.1x for Normal/Gamma and up to 2.2x for Zipf",
		Cols:  []string{"distribution", "implicit", "regular"},
	}
	pairs := workload.Dataset[uint64](workload.Uniform, n, cfg.Seed)
	sample := cfg.Queries
	if sample > 1<<17 {
		sample = 1 << 17
	}
	var base [2]float64
	rows := make([][]string, 0, 4)
	for _, d := range []workload.Distribution{workload.Uniform, workload.Normal, workload.Gamma, workload.Zipf} {
		qs := workload.SkewedQueries[uint64](d, sample, cfg.Seed+7)
		row := []string{d.String()}
		for vi, v := range []core.Variant{core.Implicit, core.Regular} {
			tr, err := buildHB(pairs, core.Options{Machine: m, Variant: v, Strategy: core.DoubleBuffered})
			if err != nil {
				return nil, err
			}
			frac := leafMissUnderDistribution(tr, m.CPU, qs)
			tr.SetLeafMissOverride(frac)
			_, _, stats, err := tr.LookupBatch(qs)
			if err != nil {
				return nil, err
			}
			if d == workload.Uniform {
				base[vi] = stats.ThroughputQPS
			}
			row = append(row, fmtF(stats.ThroughputQPS/base[vi], 2)+"x")
			tr.Close()
		}
		rows = append(rows, row)
	}
	t.Rows = rows
	return []Table{t}, nil
}

// cpuOptThroughput models the CPU-optimized baseline throughput for one
// variant at one size.
func cpuOptThroughput[K keys.Key](pairs []keys.Pair[K], cpu platform.CPU, regular bool, nQueries int) (float64, vclock.Duration, error) {
	if regular {
		rt, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
		if err != nil {
			return 0, 0, err
		}
		p, searches := regularProfile(rt, cpu)
		pq := model.PerQuery(cpu, simd.Hierarchical, searches, p, 0, 16, 0)
		d := model.BatchDuration(cpu, nQueries, pq, p.MissBytes(), cpu.Threads)
		return model.Throughput(nQueries, d), pq * 16, nil
	}
	it, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{})
	if err != nil {
		return 0, 0, err
	}
	p, searches := implicitProfile(it, cpu)
	pq := model.PerQuery(cpu, simd.Hierarchical, searches, p, 0, 16, 0)
	d := model.BatchDuration(cpu, nQueries, pq, p.MissBytes(), cpu.Threads)
	return model.Throughput(nQueries, d), pq * 16, nil
}

func fig16For[K keys.Key](cfg Config, m platform.Machine, bits int) (Table, Table, error) {
	thr := Table{
		ID:    fmt.Sprintf("fig16-%dbit", bits),
		Title: fmt.Sprintf("search throughput, %d-bit keys (MQPS)", bits),
		Note:  "paper: HB+ implicit ~flat (CPU-bound leaf stage), CPU trees decline with size; average HB+/CPU gain 2.4x (64-bit) / 2.1x (32-bit)",
		Cols:  []string{"size", "CPU impl", "CPU reg", "HB+ impl", "HB+ reg", "HB+/CPU"},
	}
	lat := Table{
		ID:    fmt.Sprintf("fig16c-%dbit", bits),
		Title: fmt.Sprintf("average query latency, %d-bit keys", bits),
		Note:  "the hybrid path needs ~2^14 in-flight queries vs 2^8 on the CPU; the paper measures ~67x higher latency, <=0.25ms",
		Cols:  []string{"size", "CPU (us)", "HB+ impl (us)", "HB+ reg (us)", "ratio"},
	}
	for _, n := range cfg.Sizes {
		pairs := workload.Dataset[K](workload.Uniform, n, cfg.Seed)
		cpuImpl, cpuLat, err := cpuOptThroughput(pairs, m.CPU, false, cfg.Queries)
		if err != nil {
			return thr, lat, err
		}
		cpuReg, _, err := cpuOptThroughput(pairs, m.CPU, true, cfg.Queries)
		if err != nil {
			return thr, lat, err
		}
		qs := workload.SearchInput(pairs, cfg.Queries, cfg.Seed+2)
		var hbThr [2]float64
		var hbLat [2]vclock.Duration
		for vi, v := range []core.Variant{core.Implicit, core.Regular} {
			tr, err := core.Build(pairs, core.Options{Machine: m, Variant: v, Strategy: core.DoubleBuffered})
			if err != nil {
				return thr, lat, err
			}
			vals, fnd, stats, err := tr.LookupBatch(qs)
			if err != nil {
				return thr, lat, err
			}
			for i, q := range qs {
				if !fnd[i] || vals[i] != workload.ValueFor(q) {
					return thr, lat, fmt.Errorf("fig16: %v lookup of %v failed", v, q)
				}
			}
			hbThr[vi] = stats.ThroughputQPS
			hbLat[vi] = stats.AvgLatency
			tr.Close()
		}
		gain := hbThr[0] / cpuImpl
		thr.AddRow(fmtSize(n), fmtMQPS(cpuImpl), fmtMQPS(cpuReg), fmtMQPS(hbThr[0]), fmtMQPS(hbThr[1]),
			fmtF(gain, 2)+"x")
		lat.AddRow(fmtSize(n), fmtF(cpuLat.Micros(), 2), fmtF(hbLat[0].Micros(), 1), fmtF(hbLat[1].Micros(), 1),
			fmtF(float64(hbLat[0])/float64(cpuLat), 0)+"x")
	}
	return thr, lat, nil
}

func runFig16(cfg Config) ([]Table, error) {
	m, _ := platform.ByName(cfg.Machine)
	t64, l64, err := fig16For[uint64](cfg, m, 64)
	if err != nil {
		return nil, err
	}
	t32, _, err := fig16For[uint32](cfg, m, 32)
	if err != nil {
		return nil, err
	}
	return []Table{t64, t32, l64}, nil
}

func runFig17(cfg Config) ([]Table, error) {
	m, _ := platform.ByName(cfg.Machine)
	cpu := m.CPU
	n := cfg.Sizes[len(cfg.Sizes)-1]
	t := Table{
		ID:    "fig17",
		Title: fmt.Sprintf("range query throughput, %s tuples (MQPS)", fmtSize(n)),
		Note:  "the HB+ advantage decays with selectivity: leaf scanning is CPU work (paper: >80% faster up to 8 matches, 22% at 32)",
		Cols:  []string{"matches", "CPU impl", "CPU reg", "HB+ impl", "HB+ reg", "HB+ adv"},
	}
	pairs := workload.Dataset[uint64](workload.Uniform, n, cfg.Seed)
	impl, err := cpubtree.BuildImplicit(pairs, cpubtree.Config{})
	if err != nil {
		return nil, err
	}
	reg, err := cpubtree.BuildRegular(pairs, cpubtree.Config{})
	if err != nil {
		return nil, err
	}
	hbImpl, err := core.Build(pairs, core.Options{Machine: m, Variant: core.Implicit})
	if err != nil {
		return nil, err
	}
	defer hbImpl.Close()
	hbReg, err := core.Build(pairs, core.Options{Machine: m, Variant: core.Regular})
	if err != nil {
		return nil, err
	}
	defer hbReg.Close()

	pI, sI := implicitProfile(impl, cpu)
	pR, sR := regularProfile(reg, cpu)
	leafMiss := 1.0
	if float64(impl.Stats().LeafBytes) < float64(cpu.LLCBytes) {
		leafMiss = 0
	}
	const ppl = 4 // pairs per leaf line, 64-bit

	for _, matches := range []int{1, 2, 4, 8, 16, 32} {
		// CPU-optimized trees: full inner traversal plus the leaf scan.
		rpI := rangeProfile(model.MissProfile{Hit: pI.Hit, Miss: pI.Miss - 1}, leafMiss, matches, ppl)
		rpR := rangeProfile(model.MissProfile{Hit: pR.Hit, Miss: pR.Miss - 1}, leafMiss, matches, ppl)
		pqI := model.PerQuery(cpu, simd.Hierarchical, sI, rpI, 0, 16, 0)
		pqR := model.PerQuery(cpu, simd.Hierarchical, sR, rpR, 0, 16, 0)
		cI := model.Throughput(cfg.Queries, model.BatchDuration(cpu, cfg.Queries, pqI, rpI.MissBytes(), cpu.Threads))
		cR := model.Throughput(cfg.Queries, model.BatchDuration(cpu, cfg.Queries, pqR, rpR.MissBytes(), cpu.Threads))

		// HB+: GPU does the inner traversal; the CPU scans leaf lines.
		hI := hybridRangeThroughput(hbImpl, matches, ppl, leafMiss, cfg.Queries)
		hR := hybridRangeThroughput(hbReg, matches, ppl, leafMiss, cfg.Queries)

		// Functional check: the hybrid batch range path (GPU-resolved
		// start leaves) agrees with the CPU path on both variants.
		rqs := workload.RangeQueries(pairs, 64, matches, cfg.Seed+uint64(matches))
		starts := make([]uint64, len(rqs))
		for i, rq := range rqs {
			starts[i] = rq.Start
		}
		outImpl, _, err := hbImpl.RangeQueryBatch(starts, matches)
		if err != nil {
			return nil, err
		}
		outReg, _, err := hbReg.RangeQueryBatch(starts, matches)
		if err != nil {
			return nil, err
		}
		for qi, rq := range rqs {
			if len(outImpl[qi]) != rq.Count {
				return nil, fmt.Errorf("fig17: range(%d) returned %d of %d", rq.Start, len(outImpl[qi]), rq.Count)
			}
			cpuOut := hbImpl.RangeQuery(rq.Start, rq.Count, nil)
			for i := range cpuOut {
				if outImpl[qi][i] != cpuOut[i] || outReg[qi][i] != cpuOut[i] {
					return nil, fmt.Errorf("fig17: hybrid and CPU ranges diverge")
				}
			}
		}
		adv := (hI/cI - 1) * 100
		t.AddRow(fmt.Sprintf("%d", matches), fmtMQPS(cI), fmtMQPS(cR), fmtMQPS(hI), fmtMQPS(hR),
			fmtF(adv, 0)+"%")
	}
	return []Table{t}, nil
}

// hybridRangeThroughput bounds the HB+-tree's range throughput by the
// slower of the GPU inner-traversal stage and the CPU leaf-scan stage.
func hybridRangeThroughput(tr *core.Tree[uint64], matches, ppl int, leafMiss float64, nQueries int) float64 {
	opt := tr.Options()
	cpu := opt.Machine.CPU
	m := opt.BucketSize
	leafLines := float64((matches + ppl - 1) / ppl)
	p := model.MissProfile{Hit: leafLines * (1 - leafMiss), Miss: leafLines * leafMiss}
	// The leaf scan walks contiguous lines, the same streaming code the
	// CPU tree uses, so both overlap misses at the pipelined MLP.
	scanOverlap := vclock.Duration(cpu.MLPMax)
	mem := (vclock.Duration(p.Miss)*cpu.LatMem + vclock.Duration(p.Hit)*cpu.LatLLC) / scanOverlap
	pq := cpu.CostHybridSched + vclock.Duration(leafLines*float64(model.AlgoCost(cpu, simd.Hierarchical))) + mem
	t4 := model.BatchDuration(cpu, m, pq, p.MissBytes(), opt.Threads)
	t2 := tr.GPUStageDuration(m)
	period := vclock.Max(t2, t4)
	return model.Throughput(m, period) * 0.98 // pipeline fill overhead
}
