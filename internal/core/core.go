// Package core implements the HB+-tree (Section 5), the paper's primary
// contribution: a B+-tree whose inner-node segment (I-segment) is
// mirrored in GPU device memory while the leaf segment (L-segment)
// resides only in host memory, so that index search jointly exploits the
// memory bandwidth and compute resources of both processors.
//
// Searches run as the four-step heterogeneous algorithm of Section 5.4 —
// (1) copy a query bucket to the GPU, (2) GPU traversal of all inner
// levels, (3) copy the intermediate results (leaf references) back,
// (4) CPU search of the leaf nodes — composed per bucket on a virtual
// timeline with the paper's three scheduling strategies: sequential,
// CPU-GPU pipelined (Figure 5), and pipelined with double buffering
// (Figure 6). A load-balancing mode (Section 5.5) lets the CPU pre-walk
// the top D levels with the fractional split R found by the discovery
// algorithm (Algorithm 1). Batch updates follow Section 5.6: full
// rebuild plus I-segment transfer for the implicit variant, synchronized
// or asynchronous I-segment maintenance for the regular variant.
//
// Everything executes functionally — the GPU simulator traverses a real
// device-resident replica and results are bit-exact with the host tree —
// while throughput and latency are produced by the calibrated cost model
// in model.go on the virtual clock.
//
// # Concurrency
//
// A Tree's read-only operations — Lookup, LookupBatch and its Into,
// SortedInto and CPUInto forms, RangeQuery, RangeQueryBatch, Seek,
// Describe, Stats and the other accessors — are safe to call from
// multiple goroutines concurrently with one another: each LookupBatch
// composes its own vclock.Timeline and its own device staging buffers,
// device counters are atomic, and the recorded trace
// (SetTrace/LastTrace) is mutex-guarded. Mutating
// operations — Update, Rebuild, UpdateGPUAssisted, MixedBatch, Close,
// and the configuration setters SetTrace, SetBalance and
// SetLeafMissOverride — require exclusive access: no other call may
// overlap them. internal/serve wraps a Tree behind exactly this
// reader/writer contract for serving deployments.
package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"

	"hbtree/internal/cpubtree"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/model"
	"hbtree/internal/platform"
	"hbtree/internal/simd"
	"hbtree/internal/vclock"
)

// Variant selects the tree organisation (Section 3).
type Variant int

// The two HB+-tree organisations.
const (
	Implicit Variant = iota // pointer-free breadth-first array; bulk-rebuild updates
	Regular                 // pointered nodes; incremental batch updates
)

// String names the variant.
func (v Variant) String() string {
	if v == Regular {
		return "regular"
	}
	return "implicit"
}

// Strategy selects the bucket-handling technique (Section 6.3).
type Strategy int

// Bucket-handling strategies of Figure 10. The zero value is the
// paper's final configuration (pipelining with double buffering).
const (
	DoubleBuffered Strategy = iota // pipelining + double buffering (Figure 6)
	Sequential                     // one bucket at a time, no overlap
	Pipelined                      // CPU-GPU pipelining (Figure 5)
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case Sequential:
		return "sequential"
	case Pipelined:
		return "pipelined"
	case DoubleBuffered:
		return "double-buffered"
	}
	return "unknown"
}

// DefaultBucketSize is the bucket size M the paper selects after the
// sweep of Figure 11.
const DefaultBucketSize = 16 * 1024

// Layout selects the implicit I-segment's per-level node geometry.
type Layout int

const (
	// LayoutUniform is the paper's geometry: every inner node is one
	// cache line wide at every level.
	LayoutUniform Layout = iota

	// LayoutTuned lets the cost model widen root-side levels into
	// multi-line nodes where a shared-descent batch probes few distinct
	// nodes, shortening the tree without adding probe-weighted lines.
	LayoutTuned
)

func (l Layout) String() string {
	if l == LayoutTuned {
		return "tuned"
	}
	return "uniform"
}

// Options configures an HB+-tree.
type Options struct {
	// Machine is the platform model; the zero value selects M1.
	Machine platform.Machine

	// Variant selects implicit or regular organisation.
	Variant Variant

	// NodeSearch is the CPU in-node search kernel.
	NodeSearch simd.Algorithm

	// BucketSize is M, the number of queries per bucket; zero selects
	// DefaultBucketSize (16K).
	BucketSize int

	// Strategy is the bucket-handling technique; the default
	// (DoubleBuffered) is the paper's final configuration.
	Strategy Strategy

	// LoadBalance enables the load-balanced mode of Section 5.5, with D
	// and R chosen by the discovery algorithm on first use (or set
	// explicitly via SetBalance). Load balancing uses three concurrent
	// buckets instead of two (Section 5.5).
	LoadBalance bool

	// Threads overrides the CPU worker count; zero selects the machine
	// model's hardware threads for the cost model and GOMAXPROCS for
	// functional execution.
	Threads int

	// PipelineDepth is the CPU software-pipeline length (16 default).
	PipelineDepth int

	// LeafFill is the regular tree's bulk-load fill factor.
	LeafFill float64

	// Layout selects the implicit I-segment's node geometry.
	// LayoutUniform (the zero value) keeps the paper's one-line nodes at
	// every level; LayoutTuned asks internal/model to cost candidate
	// per-level widths at build and rebuild time and widens the root-side
	// levels when that strictly reduces the expected probe-weighted line
	// count of a shared-descent batch. The regular variant ignores it.
	Layout Layout

	// LayoutBatch is the coalesced batch size the layout tuner optimises
	// for (the serving layer's flush window); zero selects BucketSize.
	// Only read when Layout == LayoutTuned.
	LayoutBatch int

	// Device, when non-nil, places this tree's I-segment replica on an
	// existing simulated GPU instead of a private one, so several
	// indexes share (and compete for) one card's memory — the
	// deployment the paper envisions for a database with many indexes.
	Device *gpusim.Device
}

func (o *Options) fillDefaults() {
	if o.Machine.Name == "" {
		o.Machine = platform.M1()
	}
	if o.BucketSize <= 0 {
		o.BucketSize = DefaultBucketSize
	}
	if o.PipelineDepth == 0 {
		o.PipelineDepth = cpubtree.DefaultPipelineDepth
	}
	if o.Threads <= 0 {
		o.Threads = o.Machine.CPU.Threads
	}
}

// validate rejects configurations the executors cannot honour.
func (o *Options) validate() error {
	if o.Variant != Implicit && o.Variant != Regular {
		return fmt.Errorf("core: unknown variant %d", o.Variant)
	}
	switch o.Strategy {
	case Sequential, Pipelined, DoubleBuffered:
	default:
		return fmt.Errorf("core: unknown strategy %d", o.Strategy)
	}
	if o.BucketSize < 64 {
		return fmt.Errorf("core: bucket size %d below the minimum of 64", o.BucketSize)
	}
	if o.LeafFill < 0 || o.LeafFill > 1 {
		return fmt.Errorf("core: leaf fill %v outside [0, 1]", o.LeafFill)
	}
	return nil
}

// BuildStats reports the construction cost breakdown (the phases of
// Figure 15: L-segment build, I-segment build, I-segment transfer).
type BuildStats struct {
	LSegBuild vclock.Duration
	ISegBuild vclock.Duration
	ISegXfer  vclock.Duration
	ISegBytes int64
	LSegBytes int64
}

// Total returns the full construction time.
func (b BuildStats) Total() vclock.Duration { return b.LSegBuild + b.ISegBuild + b.ISegXfer }

// devShare reference-counts a group of trees sharing one set of
// device-resident I-segment buffers. ApplyDelta forks join their
// parent's group instead of re-uploading an identical image; the
// buffers are freed when the last member releases them.
type devShare struct {
	refs atomic.Int32
}

// Tree is an HB+-tree over K (uint64 or uint32 keys).
type Tree[K keys.Key] struct {
	opt Options
	dev *gpusim.Device

	impl *cpubtree.ImplicitTree[K] // set when opt.Variant == Implicit
	reg  *cpubtree.RegularTree[K]  // set when opt.Variant == Regular

	// Device-resident I-segment replica. A delta fork (ApplyDelta)
	// shares these buffers with its ancestors — the inner pools are
	// byte-identical across an in-place epoch chain, so re-uploading
	// them would be pure waste — and bufShare refcounts the sharing
	// group: the buffers are freed when the last tree drops its
	// reference, and a remirror detaches into a fresh group.
	isegBuf  *gpusim.Buffer[K] // implicit variant
	upperBuf *gpusim.Buffer[K] // regular variant
	lastBuf  *gpusim.Buffer[K]
	bufShare *devShare

	implDesc gpusim.ImplicitDesc
	regDesc  gpusim.RegularDesc

	// replicaStale marks a device replica that could not be
	// re-synchronised after a faulted update: the host tree mutated but
	// the device image did not follow. While set, every GPU-path lookup
	// fails with fault.ErrReplicaStale (stale inner nodes would
	// misroute queries); a successful re-mirror clears it. Written only
	// under the tree's single-writer contract, but atomic because the
	// serving layer's background repair clears it on a *published* tree
	// while CPU-path readers are live: a reader that loads false is
	// ordered after the repaired buffers were installed, and no GPU
	// reader can be in flight during the repair (the flag was true for
	// the tree's whole published life until that store).
	replicaStale atomic.Bool

	// Load-balance parameters (Section 5.5); valid when balanced.
	// balanceMu serialises the first-use discovery so concurrent
	// balanced lookups never race on the parameters.
	balanceMu sync.Mutex
	balanced  bool
	lbD       int
	lbR       float64

	// leafMissOverride, when in [0,1], replaces the analytic leaf-stage
	// miss fraction (see SetLeafMissOverride).
	leafMissOverride float64

	// traceOn records the next LookupBatch's timeline for Gantt
	// rendering (see SetTrace / LastTrace). The recorded timeline is
	// guarded so concurrent traced lookups keep isolated timelines and
	// only the publication of the last one is serialised.
	traceOn   atomic.Bool
	traceMu   sync.Mutex
	lastTrace *vclock.Timeline

	buildStats BuildStats

	// scratch pools per-batch search working state (device staging
	// buffers, host staging slices, timeline) so the steady-state
	// lookup path allocates nothing. See scratch.go.
	scratch chan *searchScratch[K]
}

// Build constructs an HB+-tree from sorted, distinct pairs and mirrors
// its I-segment into simulated GPU memory. It fails with
// gpusim.ErrOutOfMemory (wrapped) when the I-segment exceeds the card's
// capacity — the constraint that rules out whole-tree GPU residency and
// motivates the hybrid layout.
func Build[K keys.Key](pairs []keys.Pair[K], opt Options) (*Tree[K], error) {
	opt.fillDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	dev := opt.Device
	if dev == nil {
		dev = gpusim.New(opt.Machine.GPU)
	}
	t := &Tree[K]{opt: opt, dev: dev, leafMissOverride: -1,
		scratch: make(chan *searchScratch[K], scratchPoolCap)}

	cfg := cpubtree.Config{
		NodeSearch:    opt.NodeSearch,
		PipelineDepth: opt.PipelineDepth,
		LeafFill:      opt.LeafFill,
	}
	var err error
	switch opt.Variant {
	case Implicit:
		// The HB+ I-segment reduces the fanout to the keys-per-line
		// count and pins the last key to MAX so one warp team covers
		// both data access and node search (Section 5.2).
		cfg.Fanout = keys.PerLine[K]()
		cfg.RootWidths = tunedWidths[K](opt, len(pairs))
		t.impl, err = cpubtree.BuildImplicit(pairs, cfg)
	case Regular:
		t.reg, err = cpubtree.BuildRegular(pairs, cfg)
	default:
		return nil, fmt.Errorf("core: unknown variant %d", opt.Variant)
	}
	if err != nil {
		return nil, err
	}
	t.buildStats.LSegBuild, t.buildStats.ISegBuild = t.modelBuildCost()
	if err := t.mirrorISegment(); err != nil {
		return nil, err
	}
	return t, nil
}

// tunedWidths derives the implicit tree's RootWidths policy from the
// layout option: nil (uniform) unless LayoutTuned is selected, in which
// case the cost model picks the per-level widths that minimise the
// expected probe-weighted line count of a shared-descent batch of
// LayoutBatch (default BucketSize) queries.
func tunedWidths[K keys.Key](opt Options, numPairs int) []int {
	if opt.Layout != LayoutTuned {
		return nil
	}
	kpn := keys.PerLine[K]()
	pairsLine := kpn / 2
	numLeaves := (numPairs + pairsLine - 1) / pairsLine
	batch := opt.LayoutBatch
	if batch <= 0 {
		batch = opt.BucketSize
	}
	return model.TuneWidths(numLeaves, kpn, kpn, batch)
}

// mirrorISegment (re)creates the device-resident replica of the
// I-segment, recording the transfer cost.
func (t *Tree[K]) mirrorISegment() error {
	t.releaseDeviceBufs()
	sz := int64(keys.Size[K]())
	switch t.opt.Variant {
	case Implicit:
		inner, levelOff, kpn, fanout := t.impl.InnerArray()
		buf, err := gpusim.Malloc[K](t.dev, len(inner))
		if err != nil {
			return fmt.Errorf("core: I-segment does not fit in GPU memory: %w", err)
		}
		d, err := buf.CopyFromHost(inner)
		if err != nil {
			buf.Free()
			return err
		}
		t.isegBuf = buf
		off32 := make([]int32, len(levelOff))
		for i, o := range levelOff {
			off32[i] = int32(o)
		}
		// The descriptor always carries the materialised per-level layout
		// table so kernels never rebuild it on the serving path; for a
		// uniform tree the table is exactly the scalar-field geometry and
		// the kernels behave byte-identically to the uniform arithmetic.
		geom := t.impl.LevelGeometry()
		levels := make([]gpusim.LevelGeom, len(geom))
		for i, g := range geom {
			levels[i] = gpusim.LevelGeom{
				Off:    int32(g.Slot),
				Kpn:    int32(g.Kpn),
				Fanout: int32(g.Fanout),
				Lines:  int32(g.Kpn / kpn),
			}
		}
		t.implDesc = gpusim.ImplicitDesc{
			LevelOff:  off32,
			Kpn:       kpn,
			Fanout:    fanout,
			Height:    t.impl.Height(),
			NumLeaves: t.impl.NumLeafLines(),
			Levels:    levels,
		}
		t.buildStats.ISegXfer = d
		t.buildStats.ISegBytes = int64(len(inner)) * sz
		t.buildStats.LSegBytes = t.impl.Stats().LeafBytes
	case Regular:
		upper, last, root, height, nodeSlots, kpl := t.reg.InnerArrays()
		ub, err := gpusim.Malloc[K](t.dev, len(upper))
		if err != nil {
			return fmt.Errorf("core: I-segment (upper) does not fit in GPU memory: %w", err)
		}
		lb, err := gpusim.Malloc[K](t.dev, len(last))
		if err != nil {
			ub.Free()
			return fmt.Errorf("core: I-segment (last) does not fit in GPU memory: %w", err)
		}
		d1, err := ub.CopyFromHost(upper)
		if err != nil {
			ub.Free()
			lb.Free()
			return err
		}
		d2, err := lb.CopyFromHost(last)
		if err != nil {
			ub.Free()
			lb.Free()
			return err
		}
		t.upperBuf, t.lastBuf = ub, lb
		t.regDesc = gpusim.RegularDesc{
			Root:        root,
			RootInUpper: height >= 2,
			Height:      height,
			NodeSlots:   nodeSlots,
			Kpl:         kpl,
		}
		t.buildStats.ISegXfer = d1 + d2
		t.buildStats.ISegBytes = (int64(len(upper)) + int64(len(last))) * sz
		t.buildStats.LSegBytes = t.reg.Stats().LeafBytes
	}
	sh := &devShare{}
	sh.refs.Store(1)
	t.bufShare = sh
	t.replicaStale.Store(false) // a full mirror re-establishes consistency
	return nil
}

// releaseDeviceBufs drops this tree's reference to its device-buffer
// sharing group, freeing the buffers when it was the last holder. The
// local pointers are always cleared, so the call is idempotent and a
// later mirror starts from a clean slate.
func (t *Tree[K]) releaseDeviceBufs() {
	sh := t.bufShare
	t.bufShare = nil
	if sh != nil && sh.refs.Add(-1) > 0 {
		// Other epoch-chain members still use the buffers.
		t.isegBuf, t.upperBuf, t.lastBuf = nil, nil, nil
		return
	}
	if t.isegBuf != nil {
		t.isegBuf.Free()
		t.isegBuf = nil
	}
	if t.upperBuf != nil {
		t.upperBuf.Free()
		t.upperBuf = nil
	}
	if t.lastBuf != nil {
		t.lastBuf.Free()
		t.lastBuf = nil
	}
}

// ReplicaStale reports whether the device replica is known to lag the
// host tree after a faulted synchronisation (see fault.ErrReplicaStale).
func (t *Tree[K]) ReplicaStale() bool { return t.replicaStale.Load() }

// remirror re-creates the device replica after a host-side mutation.
// Unlike the construction-time mirror, a failure here leaves the host
// tree ahead of the device image, so the tree is marked replica-stale:
// the batch itself succeeded in host memory (no acked write is lost)
// and GPU-path lookups fail typed until a later mirror heals the
// replica. The original transfer/allocation error is returned so the
// caller can classify it (fault.Is).
func (t *Tree[K]) remirror() error {
	if err := t.mirrorISegment(); err != nil {
		t.replicaStale.Store(true)
		return err
	}
	return nil
}

// Resync retries the full I-segment mirror, clearing the stale flag on
// success — the recovery path the serving layer drives after faulted
// updates. It is a no-op when the replica is already consistent. Must
// be called under the tree's single-writer contract.
func (t *Tree[K]) Resync() error {
	if !t.replicaStale.Load() {
		return nil
	}
	return t.remirror()
}

// modelBuildCost returns the virtual construction durations of the L-
// and I-segments (per-pair CPU work plus the bytes written at memory
// bandwidth).
func (t *Tree[K]) modelBuildCost() (lseg, iseg vclock.Duration) {
	cpu := t.opt.Machine.CPU
	var st cpubtree.Stats
	if t.impl != nil {
		st = t.impl.Stats()
	} else {
		st = t.reg.Stats()
	}
	lseg = vclock.Duration(st.NumPairs)*cpu.RebuildPerPair +
		vclock.Duration(float64(2*st.LeafBytes)/cpu.MemBWBytes*1e9)
	iseg = vclock.Duration(float64(2*st.InnerBytes+st.LeafBytes/4) / cpu.MemBWBytes * 1e9)
	return lseg, iseg
}

// Close releases the device-resident buffers, including any pooled
// search scratch. Close is idempotent.
func (t *Tree[K]) Close() {
	t.drainScratch()
	t.releaseDeviceBufs()
}

// Options returns the tree's configuration.
func (t *Tree[K]) Options() Options { return t.opt }

// SetTrace makes subsequent LookupBatch calls record their virtual
// timeline; LastTrace returns it for Gantt rendering — the reproduction
// of the paper's pipelining diagrams (Figures 5 and 6).
func (t *Tree[K]) SetTrace(on bool) { t.traceOn.Store(on) }

// LastTrace returns the most recent traced timeline, or nil. When
// traced lookups run concurrently, each records its own timeline and
// the last publisher wins.
func (t *Tree[K]) LastTrace() *vclock.Timeline {
	t.traceMu.Lock()
	defer t.traceMu.Unlock()
	return t.lastTrace
}

// setLastTrace publishes a lookup's recorded timeline.
func (t *Tree[K]) setLastTrace(tl *vclock.Timeline) {
	t.traceMu.Lock()
	t.lastTrace = tl
	t.traceMu.Unlock()
}

// Device exposes the simulated GPU (counters, memory accounting).
func (t *Tree[K]) Device() *gpusim.Device { return t.dev }

// BuildStats returns the construction cost breakdown.
func (t *Tree[K]) BuildStats() BuildStats { return t.buildStats }

// Stats reports the underlying tree geometry.
func (t *Tree[K]) Stats() cpubtree.Stats {
	if t.impl != nil {
		return t.impl.Stats()
	}
	return t.reg.Stats()
}

// Height returns H, the inner-level count.
func (t *Tree[K]) Height() int {
	if t.impl != nil {
		return t.impl.Height()
	}
	return t.reg.Height()
}

// Lookup resolves a single query on the CPU path (convenience; the
// throughput path is LookupBatch). The GPU replica is not consulted.
func (t *Tree[K]) Lookup(q K) (K, bool) {
	if t.impl != nil {
		return t.impl.Lookup(q)
	}
	return t.reg.Lookup(q)
}

// RangeQuery returns up to count pairs with key >= start. Range scans
// are a CPU-side operation: after the inner traversal the leaf chain is
// walked in host memory (Section 6.4).
func (t *Tree[K]) RangeQuery(start K, count int, out []keys.Pair[K]) []keys.Pair[K] {
	if t.impl != nil {
		return t.impl.RangeQuery(start, count, out)
	}
	return t.reg.RangeQuery(start, count, out)
}

// NumPairs returns the number of stored pairs.
func (t *Tree[K]) NumPairs() int {
	if t.impl != nil {
		return t.impl.Stats().NumPairs
	}
	return t.reg.NumPairs()
}

// Implicit returns the underlying implicit tree (nil for the regular
// variant); exposed for the harness and tests.
func (t *Tree[K]) Implicit() *cpubtree.ImplicitTree[K] { return t.impl }

// Regular returns the underlying regular tree (nil for the implicit
// variant).
func (t *Tree[K]) Regular() *cpubtree.RegularTree[K] { return t.reg }

// WriteTo serialises the HB+-tree's host-resident state (both segments
// and, for the regular variant, all metadata). The GPU replica is not
// stored: Load reconstructs it by re-mirroring the I-segment, exactly as
// a restart on real hardware would.
func (t *Tree[K]) WriteTo(w io.Writer) (int64, error) {
	var kind [1]byte
	if t.opt.Variant == Regular {
		kind[0] = 2
	} else {
		kind[0] = 1
	}
	if _, err := w.Write(kind[:]); err != nil {
		return 0, err
	}
	var n int64
	var err error
	if t.impl != nil {
		n, err = t.impl.WriteTo(w)
	} else {
		n, err = t.reg.WriteTo(w)
	}
	return n + 1, err
}

// Load reads a tree serialised by WriteTo, applying opt's runtime
// configuration (machine model, bucket size, strategy), and mirrors the
// I-segment into the simulated GPU's memory.
func Load[K keys.Key](r io.Reader, opt Options) (*Tree[K], error) {
	opt.fillDefaults()
	var kind [1]byte
	if _, err := io.ReadFull(r, kind[:]); err != nil {
		return nil, fmt.Errorf("core: reading variant: %w", err)
	}
	cfg := cpubtree.Config{
		NodeSearch:    opt.NodeSearch,
		PipelineDepth: opt.PipelineDepth,
		LeafFill:      opt.LeafFill,
	}
	dev := opt.Device
	if dev == nil {
		dev = gpusim.New(opt.Machine.GPU)
	}
	t := &Tree[K]{opt: opt, dev: dev, leafMissOverride: -1,
		scratch: make(chan *searchScratch[K], scratchPoolCap)}
	switch kind[0] {
	case 1:
		opt.Variant = Implicit
		t.opt.Variant = Implicit
		impl, err := cpubtree.ReadImplicit[K](r, cfg)
		if err != nil {
			return nil, err
		}
		t.impl = impl
	case 2:
		opt.Variant = Regular
		t.opt.Variant = Regular
		reg, err := cpubtree.ReadRegular[K](r, cfg)
		if err != nil {
			return nil, err
		}
		t.reg = reg
	default:
		return nil, fmt.Errorf("core: unknown serialised variant %d", kind[0])
	}
	t.buildStats.LSegBuild, t.buildStats.ISegBuild = t.modelBuildCost()
	if err := t.mirrorISegment(); err != nil {
		return nil, err
	}
	return t, nil
}

// Seek returns a forward cursor over the stored pairs positioned at the
// first key >= start. Cursors stream in key order from the host-resident
// leaves; they are read-only and must not be used concurrently with
// updates.
func (t *Tree[K]) Seek(start K) cpubtree.Cursor[K] {
	if t.impl != nil {
		return t.impl.Seek(start)
	}
	return t.reg.Seek(start)
}

// Describe returns a human-readable report of the tree: geometry,
// segment placement, device occupancy and configuration. Tools such as
// cmd/hbserve expose it for operational visibility.
func (t *Tree[K]) Describe() string {
	st := t.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "HB+-tree (%s variant, %d-bit keys) on %s\n",
		t.opt.Variant, keys.Size[K]()*8, t.opt.Machine.Name)
	fmt.Fprintf(&b, "  pairs: %d, height: %d, lines/query: %d\n",
		st.NumPairs, st.Height, st.LinesPerQuery)
	fmt.Fprintf(&b, "  I-segment: %.2f MiB (mirrored to %s)\n",
		float64(st.InnerBytes)/(1<<20), t.opt.Machine.GPU.Name)
	fmt.Fprintf(&b, "  L-segment: %.2f MiB (host only)\n",
		float64(st.LeafBytes)/(1<<20))
	fmt.Fprintf(&b, "  device memory: %.2f / %.0f MiB used\n",
		float64(t.dev.MemUsed())/(1<<20), float64(t.opt.Machine.GPU.MemBytes)/(1<<20))
	fmt.Fprintf(&b, "  buckets: %d queries, %s strategy, node search: %s\n",
		t.opt.BucketSize, t.opt.Strategy, t.opt.NodeSearch)
	if t.impl != nil {
		fmt.Fprintf(&b, "  layout: %s, level widths: %v\n", t.opt.Layout, t.impl.LevelWidths())
	}
	if t.balanced {
		fmt.Fprintf(&b, "  load balance: D=%d R=%.2f\n", t.lbD, t.lbR)
	}
	return b.String()
}

// LevelWidths returns the implicit tree's per-level node widths in key
// slots, root first — the concrete layout the tuner (or the uniform
// default) chose. nil for the regular variant.
func (t *Tree[K]) LevelWidths() []int {
	if t.impl == nil {
		return nil
	}
	return t.impl.LevelWidths()
}

// LayoutAdvice recommends per-level root widths for this tree from an
// observed per-level probe histogram (SearchStats.LevelProbes semantics,
// accumulated across batches), screened through the machine's LLC miss
// profile. nil means the uniform layout is already the right choice.
func (t *Tree[K]) LayoutAdvice(levelProbes []int64) []int {
	if t.impl == nil {
		return nil
	}
	kpn := keys.PerLine[K]()
	return model.LayoutAdvice(levelProbes, t.impl.LevelWidths(),
		t.impl.NumLeafLines(), kpn, kpn, t.opt.Machine.CPU.LLCBytes)
}
