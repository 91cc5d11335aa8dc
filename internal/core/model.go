package core

import (
	"hbtree/internal/keys"
	"hbtree/internal/model"
	"hbtree/internal/platform"
	"hbtree/internal/simd"
	"hbtree/internal/vclock"
)

// This file is the calibrated CPU/GPU cost model that converts
// functionally measured event counts (cache-line touches per level, LLC
// hit fractions, TLB walks, transfer bytes, GPU transactions) into
// virtual durations. Together with the vclock.Timeline it reproduces the
// timing algebra of Section 5.4:
//
//	T1 = T_init + M*S/Bandwidth          (bucket H2D copy)
//	T2 = K_init + (M/SIMD_G) * P_GPU     (GPU inner traversal)
//	T3 = T_init + M*R/Bandwidth          (intermediate result D2H copy)
//	T4 = (M/SIMD_C) * P_CPU              (CPU leaf search)
//
// and the strategy costs T_S = ΣT_i (sequential),
// T_P = T1 + max(T2+T3, T4) (pipelined) and T_P = max(T2, T4)
// (double-buffered).

// regularKernelDivergence derates GPU bandwidth for the regular tree's
// three-phase node search, whose index-line/key-line/reference accesses
// diverge more than the implicit kernel's single coalesced stream.
const regularKernelDivergence = 0.65

// mlpLeafStage is the memory-level parallelism of the hybrid leaf stage:
// its leaf lines come from an independent result array (not a dependent
// descent), so the out-of-order core overlaps a couple of misses even
// without software pipelining.
const mlpLeafStage = 2

// mlpSerialPhase is the fraction of a miss's latency that cannot be
// overlapped even at maximal memory-level parallelism (address
// generation, dependent issue).
const lockOverhead = 40 * vclock.Nanosecond // striped-mutex cost per op in mixed batches

// missProfile aliases the shared model's profile type; helpers below
// keep the call sites terse.
type missProfile = model.MissProfile

func profileLevels(levelBytes []int64, levelLines []float64, llcBytes int64) missProfile {
	return model.ProfileLevels(levelBytes, levelLines, llcBytes)
}

// lookupProfile returns the miss profile and in-node search count of one
// full lookup on the underlying tree. The implicit tree's depends only
// on its geometry, so it is computed once per build (cacheLookupProfile)
// and the degraded-mode fallback pays nothing for it per batch; the
// regular tree's inner node counts move with every update.
func (t *Tree[K]) lookupProfile() (missProfile, float64) {
	if t.impl != nil {
		return t.implProfile, t.implSearches
	}
	llc := t.opt.Machine.CPU.LLCBytes
	counts := t.reg.LevelNodeCounts()
	st := t.reg.Stats()
	nodeBytes := int64(17 * keys.LineBytes) // S_I
	if keys.Size[K]() == 4 {
		nodeBytes = 33 * keys.LineBytes
	}
	h := len(counts)
	bytes := make([]int64, h+1)
	lines := make([]float64, h+1)
	for d := 0; d < h; d++ {
		bytes[d] = int64(counts[d]) * nodeBytes
		if d == h-1 {
			lines[d] = 2 // last-level node: index line + key line
		} else {
			lines[d] = 3 // index line + key line + reference line
		}
	}
	bytes[h] = st.LeafBytes
	lines[h] = 1
	return profileLevels(bytes, lines, llc), 2*float64(h) - 1
}

// cacheLookupProfile records the implicit tree's full-lookup miss
// profile. Call it whenever t.impl is built, loaded or rebuilt.
func (t *Tree[K]) cacheLookupProfile() {
	h := t.impl.Height()
	st := t.impl.Stats()
	geom := t.impl.LevelGeometry()
	bytes := make([]int64, h+1)
	lines := make([]float64, h+1)
	for d := 0; d < h; d++ {
		// A tuned level's wide nodes span several lines; each probe
		// touches all of them. Uniform levels are the historical
		// one-line-per-node shape.
		ln := int64(geom[d].Kpn / keys.PerLine[K]())
		bytes[d] = int64(geom[d].Nodes) * ln * keys.LineBytes
		lines[d] = float64(ln)
	}
	bytes[h] = st.LeafBytes
	lines[h] = 1
	t.implProfile = profileLevels(bytes, lines, t.opt.Machine.CPU.LLCBytes)
	t.implSearches = float64(h + 1)
}

// leafProfile returns the miss profile of the CPU leaf stage alone
// (step 4 of the hybrid search): one leaf-line touch per query.
func (t *Tree[K]) leafProfile() missProfile {
	if t.leafMissOverride >= 0 && t.leafMissOverride <= 1 {
		return missProfile{Hit: 1 - t.leafMissOverride, Miss: t.leafMissOverride}
	}
	llc := t.opt.Machine.CPU.LLCBytes
	var leafBytes int64
	if t.impl != nil {
		leafBytes = t.impl.Stats().LeafBytes
	} else {
		leafBytes = t.reg.Stats().LeafBytes
	}
	return profileLevels([]int64{leafBytes}, []float64{1}, llc)
}

// topLevelsProfile returns the miss profile and node-search count of the
// CPU's top-D-level share in load-balanced mode (Section 5.5: "the space
// required for them is comparably lower ... resulting in better cache
// utilization").
func (t *Tree[K]) topLevelsProfile(depth float64) (missProfile, float64) {
	llc := t.opt.Machine.CPU.LLCBytes
	d := int(depth)
	fr := depth - float64(d)
	if t.impl != nil {
		h := t.impl.Height()
		if d > h {
			d, fr = h, 0
		}
		geom := t.impl.LevelGeometry()
		bytes := make([]int64, 0, d+1)
		lines := make([]float64, 0, d+1)
		for lvl := 0; lvl < d; lvl++ {
			ln := int64(geom[lvl].Kpn / keys.PerLine[K]())
			bytes = append(bytes, int64(geom[lvl].Nodes)*ln*keys.LineBytes)
			lines = append(lines, float64(ln))
		}
		if fr > 0 && d < h {
			ln := int64(geom[d].Kpn / keys.PerLine[K]())
			bytes = append(bytes, int64(geom[d].Nodes)*ln*keys.LineBytes)
			lines = append(lines, fr*float64(ln))
		}
		return profileLevels(bytes, lines, llc), depth
	}
	counts := t.reg.LevelNodeCounts()
	nodeBytes := int64(17 * keys.LineBytes)
	if keys.Size[K]() == 4 {
		nodeBytes = 33 * keys.LineBytes
	}
	h := len(counts)
	if d > h {
		d, fr = h, 0
	}
	bytes := make([]int64, 0, d+1)
	lines := make([]float64, 0, d+1)
	searches := 0.0
	for lvl := 0; lvl < d; lvl++ {
		bytes = append(bytes, int64(counts[lvl])*nodeBytes)
		lines = append(lines, 3)
		searches += 2
	}
	if fr > 0 && d < h {
		bytes = append(bytes, int64(counts[d])*nodeBytes)
		lines = append(lines, 3*fr)
		searches += 2 * fr
	}
	return profileLevels(bytes, lines, llc), searches
}

// nodeSearch is the in-node search the cost model charges the CPU for:
// the hierarchical search (Figure 8's fastest), the one every host
// descent runs.
const nodeSearch = simd.Hierarchical

// cpuPerQuery and cpuBatchDuration delegate to the shared cost model.
func cpuPerQuery(cpu platform.CPU, nodeSearches float64, p missProfile, walk vclock.Duration, swDepth int, extra vclock.Duration) vclock.Duration {
	return model.PerQuery(cpu, nodeSearch, nodeSearches, p, walk, swDepth, extra)
}

func cpuBatchDuration(cpu platform.CPU, n int, perQuery vclock.Duration, missBytes float64, threads int) vclock.Duration {
	return model.BatchDuration(cpu, n, perQuery, missBytes, threads)
}

// cpuFullLookupBatch models the CPU-optimized baseline: a batch of n
// full-tree lookups with the tree's own geometry (used by the harness
// for Figures 7b, 8, 16, 19 and 20). It returns the batch duration and
// the per-query cost it is built from.
func (t *Tree[K]) cpuFullLookupBatch(n int) (batch, perQuery vclock.Duration) {
	p, searches := t.lookupProfile()
	pq := cpuPerQuery(t.opt.Machine.CPU, searches, p, 0, t.opt.PipelineDepth, 0)
	return cpuBatchDuration(t.opt.Machine.CPU, n, pq, p.Miss*keys.LineBytes, t.opt.Threads), pq
}

// cpuLeafStageDuration models step 4 of the hybrid search: n leaf-line
// searches plus the hybrid scheduling overhead per query. Unlike a full
// tree lookup, the leaf stage walks the GPU's result array in order with
// little software-pipelining headroom, so misses overlap only at the
// core's natural MLP — which is exactly why skewed workloads, whose leaf
// touches hit the LLC, speed the hybrid search up (Figure 12).
func (t *Tree[K]) cpuLeafStageDuration(n int) vclock.Duration {
	cpu := t.opt.Machine.CPU
	p := t.leafProfile()
	pq := t.leafStagePerQuery(p)
	return cpuBatchDuration(cpu, n, pq, p.Miss*keys.LineBytes, t.opt.Threads)
}

// leafStagePerQuery is the per-query cost of the hybrid leaf stage: the
// scheduling/coordination overhead, one in-node search, and the leaf
// line's memory time at the unpipelined MLP.
func (t *Tree[K]) leafStagePerQuery(p missProfile) vclock.Duration {
	cpu := t.opt.Machine.CPU
	extra := cpu.CostHybridSched
	if t.opt.Variant == Regular {
		// Decoding the (leaf, line) intermediate reference costs a bit
		// more than the implicit variant's single line index.
		extra += 5 * vclock.Nanosecond
	}
	mem := (vclock.Duration(p.Miss)*cpu.LatMem + vclock.Duration(p.Hit)*cpu.LatLLC) /
		vclock.Duration(mlpLeafStage)
	return extra + vclock.Duration(float64(model.AlgoCost(cpu, nodeSearch))*p.Lines()) + mem
}

// cpuLeafStageDurationShared is cpuLeafStageDuration for a sorted
// bucket whose u queries touched only `lines` distinct leaf lines:
// adjacent sorted queries landing in the same line find it resident, so
// the memory side of the profile scales by lines/u while the per-query
// scheduling overhead stays.
func (t *Tree[K]) cpuLeafStageDurationShared(u, lines int) vclock.Duration {
	cpu := t.opt.Machine.CPU
	p := t.leafProfile()
	if u > 0 && lines < u {
		f := float64(lines) / float64(u)
		p = missProfile{Hit: p.Hit * f, Miss: p.Miss * f}
	}
	pq := t.leafStagePerQuery(p)
	return cpuBatchDuration(cpu, u, pq, p.Miss*keys.LineBytes, t.opt.Threads)
}

// gpuStageDurationShared models T2 of the shared-descent kernel: the
// transaction count the sorted kernel actually issued replaces the
// per-query descent's n*levels*transPerLevel.
func (t *Tree[K]) gpuStageDurationShared(n int, levels float64, trans int64) vclock.Duration {
	if levels <= 0 {
		return 0
	}
	if t.opt.Variant == Regular {
		return t.dev.KernelDurationShared(n, levels, trans, 3, t.warpThreads())
	}
	return t.dev.KernelDurationShared(n, levels, trans, 1, t.warpThreads())
}

// cpuTopStageDuration models the CPU share of the load-balanced search:
// the software-pipelined pre-walk of the top `depth` levels plus the
// leaf stage (Equation 4 with depth = D + R_fraction). It matches the
// sum the balanced executor schedules on the CPU station.
func (t *Tree[K]) cpuTopStageDuration(n int, depth float64) vclock.Duration {
	return t.cpuPreStageDuration(n, depth) + t.cpuLeafStageDuration(n)
}

// gpuStageDuration models step 2: the GPU traversal of `levels` inner
// levels for n queries.
func (t *Tree[K]) gpuStageDuration(n int, levels int) vclock.Duration {
	if levels <= 0 {
		return 0
	}
	return t.gpuStageDurationF(n, float64(levels))
}

// warpThreads is T, the GPU threads dedicated per query: 8 for 64-bit
// keys, 16 for 32-bit keys (Section 5.3).
func (t *Tree[K]) warpThreads() int { return keys.PerLine[K]() }

// resultSize returns R, the per-query intermediate-result bytes of the
// D2H copy: a leaf line index for the implicit tree, a (leaf, line)
// reference for the regular tree.
func (t *Tree[K]) resultSize() int64 {
	if t.opt.Variant == Regular {
		return 8
	}
	return 4
}

// SetLeafMissOverride fixes the modelled LLC miss fraction of the CPU
// leaf stage, overriding the analytic estimate. The skew experiment
// (Figure 12) measures the actual hit rate of the leaf touches under a
// query distribution with the LLC simulator and injects it here; pass a
// negative value to restore the analytic profile.
func (t *Tree[K]) SetLeafMissOverride(frac float64) {
	t.leafMissOverride = frac
}

// PointLookupCost models one dependent, unpipelined point lookup on the
// CPU path: a full root-to-leaf descent with no software pipelining and
// no batch to amortise across — the per-request serving cost that a
// coalesced LookupBatch amortises away. internal/serve charges it for
// every request served outside a batch.
func (t *Tree[K]) PointLookupCost() vclock.Duration {
	p, searches := t.lookupProfile()
	return cpuPerQuery(t.opt.Machine.CPU, searches, p, 0, 1, 0)
}

// GPUStageDuration exposes the modelled kernel time (T2 of Section 5.4)
// for a bucket of n queries over the full inner traversal; the harness
// uses it to bound hybrid range-query throughput.
func (t *Tree[K]) GPUStageDuration(n int) vclock.Duration {
	return t.gpuStageDuration(n, t.Height())
}
