package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
)

// Wall-clock measurement of the serving layer. Unlike the rest of the
// reproduction, which accounts performance on the paper's virtual
// clock, this driver measures what the ROADMAP's north star asks for —
// real throughput and latency of the serving pipeline on the machine it
// runs on: C client goroutines issue point lookups through a Coalescer
// while a fraction of their operations are routed to an update pump
// that batches them (the paper's batch-update design, Section 5.6) and
// applies each batch through Server.Update. Two configurations are
// comparable: the single-tree snapshot server and the key-space sharded
// server.

// WallOptions configures one wall-clock serving run.
type WallOptions struct {
	// Clients is the number of concurrent client goroutines (8 default).
	Clients int

	// Duration is the measurement length (1s default).
	Duration time.Duration

	// UpdateFrac routes this fraction of client operations to the
	// update pump (e.g. 0.1 for a 10% update mix). Requires the
	// regular tree variant when non-zero.
	UpdateFrac float64

	// Shards, when above 1, selects the key-space sharded configuration:
	// a ShardedServer over that many trees with per-shard update pumps
	// and a per-shard coalescer group. The default is one snapshot
	// server plus a GOMAXPROCS-striped coalescer.
	Shards int

	// MaxPending and Shed configure coalescer admission control (see
	// Options); zero MaxPending leaves the windows unbounded.
	MaxPending int
	Shed       bool

	// TargetP99 turns on adaptive admission (Options.TargetP99): the
	// coalescer resizes its window online to hold this latency target
	// and sheds the excess with retry hints, which the wall clients
	// honour by backing off. Zero keeps static admission.
	TargetP99 time.Duration

	// MinPending is the adaptive window's floor (Options.MinPending).
	MinPending int

	// FlushStall is the serialized per-flush stall (Options.FlushStall):
	// a deterministic capacity model for overload experiments.
	FlushStall time.Duration

	// MaxBatch and Window configure the coalescer (1024 and 200µs
	// defaults: wall-clock serving wants smaller flush quanta than the
	// 16K virtual-clock bucket).
	MaxBatch int
	Window   time.Duration

	// Depth is the number of lookups each client keeps in flight (512
	// default). Pipelined submission is what makes coalescing effective
	// in wall-clock terms: with one blocking request per client, every
	// batch waits out the deadline window half-empty.
	Depth int

	// UpdateBatch is the update pump's batch size (4096 default).
	UpdateBatch int

	// UpdateSkew, when positive, draws this fraction of the update
	// operations from the hottest quarter of the key space (the lowest
	// keys) instead of uniformly — the skewed write stream that
	// concentrates load on one shard. With Rebalance set, this is the
	// pressure the online rebalancer relieves.
	UpdateSkew float64

	// Rebalance, when non-nil, starts the background rebalancer on the
	// sharded server with these options (requires Shards > 1): the
	// detector watches per-shard update shares and splits hot shards /
	// merges cold neighbours online while the run is serving.
	Rebalance *RebalanceOptions

	// RebuildEvery, when non-zero, rebuilds the whole tree from the
	// original pairs on this period (implicit variant only). This is the
	// reader-stall stress: the replacement is built aside and swapped in
	// while lookups keep serving the old version.
	RebuildEvery time.Duration
}

func (o *WallOptions) fillDefaults() {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Duration <= 0 {
		o.Duration = time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 1024
	}
	if o.Window <= 0 {
		o.Window = 200 * time.Microsecond
	}
	if o.Depth <= 0 {
		o.Depth = 512
	}
	if o.UpdateBatch <= 0 {
		o.UpdateBatch = 4096
	}
}

// WallResult is one wall-clock serving measurement.
type WallResult struct {
	Lookups int64         // point lookups served
	Updates int64         // update operations pumped
	Elapsed time.Duration // measured span

	MQPS float64 // Lookups / Elapsed, in millions/s

	P50, P95, P99 time.Duration // lookup latency percentiles

	// AllocsPerLookup is the process-wide heap allocation count over the
	// measured span divided by the lookups served — the serving path's
	// steady state should hold this near zero (pooled batches, pooled
	// scratch, grow-once sorted staging).
	AllocsPerLookup float64

	// Folded counts duplicate keys folded into an already-occupied batch
	// slot by flushes; NodeProbes/ProbesSaved are the shared-descent
	// kernel's accounting summed over the run.
	Folded      int64
	NodeProbes  int64
	ProbesSaved int64

	// Layout names the inner-node geometry the run was built with
	// ("uniform" or "tuned"); LevelWidths is the realised per-level
	// key-slot table (root first) and LineBytes the probe-weighted
	// device-line traffic of the run (NodeProbes × the 64-byte line).
	Layout      string
	LevelWidths []int
	LineBytes   int64

	// DuringWriteP50/P99 are percentiles over lookups issued while a
	// write (update batch or rebuild) was executing — the reader-stall
	// measure: snapshot reads proceed against the old version, so these
	// stay near the at-rest percentiles. DuringWriteSamples counts them:
	// reads that block on writers never get submitted inside a write
	// span, so a high sample count is itself the signature of
	// non-blocking reads.
	DuringWriteP50     time.Duration
	DuringWriteP99     time.Duration
	DuringWriteSamples int

	// WriteTime is the total wall time spent inside write spans.
	WriteTime time.Duration

	// UpdateMQPS is the sustained update throughput: Updates / Elapsed,
	// in millions/s.
	UpdateMQPS float64

	// Write-path amplification accounting (DESIGN §10): batches the
	// pump landed in place on gapped-leaf forks vs batches that fell
	// back to clone-and-swap, and the clone path's host copy footprint.
	InPlaceBatches int64
	CloneFallbacks int64
	ClonedNodes    int64
	ClonedBytes    int64

	// Overload accounting: requests shed by admission control over the
	// run, the shed rate at the end of the run, the admission window at
	// the end of the run (summed across queues on a sharded coalescer),
	// and the configured latency target (0 = static admission). Shed
	// requests are not lookups and record no latency sample; wall
	// clients back off by each shed's retry-after hint.
	Shed        int64
	ShedRate    float64
	AdmitWindow int
	TargetP99   time.Duration

	Batches  int64 // coalescer batches flushed
	Swaps    int64 // snapshot publications
	Rebuilds int64 // full rebuilds executed (RebuildEvery runs)

	// Shards is the shard count of the sharded configuration at the end
	// of the run (0 otherwise); ShardSwaps and ShardUpdates are the
	// per-shard snapshot publications and applied update batches,
	// index-aligned with the ascending key ranges of the final layout.
	Shards       int
	ShardSwaps   []int64
	ShardUpdates []int64

	// Rebalances/Splits/Merges count the online shard-layout transitions
	// the background rebalancer performed during the run (Rebalance
	// runs only); Epoch is the final registry epoch.
	Rebalances, Splits, Merges int64
	Epoch                      uint64
}

func (r WallResult) String() string {
	s := fmt.Sprintf("%.2f MQPS (%d lookups, %d updates in %v), p50 %v p95 %v p99 %v, during-write p50 %v p99 %v (%d samples over %v of writes), %d batches, %d swaps",
		r.MQPS, r.Lookups, r.Updates, r.Elapsed.Round(time.Millisecond),
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond), r.P99.Round(time.Microsecond),
		r.DuringWriteP50.Round(time.Microsecond), r.DuringWriteP99.Round(time.Microsecond),
		r.DuringWriteSamples, r.WriteTime.Round(time.Millisecond), r.Batches, r.Swaps)
	if r.Updates > 0 {
		s += fmt.Sprintf(", %.2f update MQPS (%d in-place, %d clone fallbacks, %d nodes / %s cloned)",
			r.UpdateMQPS, r.InPlaceBatches, r.CloneFallbacks, r.ClonedNodes, fmtBytes(r.ClonedBytes))
	}
	if r.Shed > 0 || r.TargetP99 > 0 {
		s += fmt.Sprintf(", shed %d (%.0f/s, window %d, target %v)",
			r.Shed, r.ShedRate, r.AdmitWindow, r.TargetP99)
	}
	if r.NodeProbes > 0 {
		s += fmt.Sprintf(", %d folded, probes %d (saved %d, %.1f%%)",
			r.Folded, r.NodeProbes, r.ProbesSaved,
			100*float64(r.ProbesSaved)/float64(r.NodeProbes+r.ProbesSaved))
	}
	if r.Layout == "tuned" {
		s += fmt.Sprintf(", tuned layout %v (%s probe lines)", r.LevelWidths, fmtBytes(r.LineBytes))
	}
	if r.Shards > 0 {
		s += fmt.Sprintf(", %d shards (swaps %v)", r.Shards, r.ShardSwaps)
	}
	if r.Rebalances > 0 {
		s += fmt.Sprintf(", %d rebalances (%d splits, %d merges, epoch %d)",
			r.Rebalances, r.Splits, r.Merges, r.Epoch)
	}
	return s
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// maxWallSamples caps the per-client latency record so a long run's
// sample storage stays bounded; throughput counters are exact.
const maxWallSamples = 1 << 17

// wallBackend is the write/lifecycle surface RunWall drives: the
// single-tree Server and the ShardedServer both satisfy it.
type wallBackend[K keys.Key] interface {
	Update([]cpubtree.Op[K], core.UpdateMethod) (core.UpdateStats, error)
	Rebuild([]keys.Pair[K]) (core.UpdateStats, error)
	Swaps() int64
	Close()
}

// wallCoalescer is the lookup surface RunWall drives: the Coalescer and
// the ShardedCoalescer both satisfy it.
type wallCoalescer[K keys.Key] interface {
	Submit(K) <-chan Result[K]
	Batches() int64
	Folded() int64
	Shed() int64
	ShedRate() float64
	AdmitWindow() int
	NoteSpan(time.Duration)
	Close()
}

// RunWall builds a tree (or, with opt.Shards > 1, a sharded set of
// trees) from pairs and drives it with opt's client mix for
// opt.Duration of wall-clock time.
func RunWall[K keys.Key](pairs []keys.Pair[K], treeOpt core.Options, opt WallOptions) (WallResult, error) {
	opt.fillDefaults()
	if opt.UpdateFrac > 0 && treeOpt.Variant != core.Regular {
		return WallResult{}, fmt.Errorf("serve: wall run with updates requires the regular variant")
	}
	if opt.RebuildEvery > 0 && treeOpt.Variant != core.Implicit {
		return WallResult{}, fmt.Errorf("serve: wall run with rebuilds requires the implicit variant")
	}
	if opt.Rebalance != nil && opt.Shards <= 1 {
		return WallResult{}, fmt.Errorf("serve: Rebalance requires a sharded configuration (Shards > 1)")
	}
	if treeOpt.Variant == core.Implicit {
		// The cost-model-tuned layout, sized for the flush quantum the
		// coalescer will present.
		treeOpt.Layout = core.LayoutTuned
		treeOpt.LayoutBatch = opt.MaxBatch
	}
	if opt.UpdateFrac > 0 && treeOpt.LeafFill == 0 {
		// Write-heavy runs build with leaf slack so batches can land in
		// place.
		treeOpt.LeafFill = 0.875
	}

	coOpt := Options{MaxBatch: opt.MaxBatch, Window: opt.Window, MaxPending: opt.MaxPending, Shed: opt.Shed,
		TargetP99: opt.TargetP99, MinPending: opt.MinPending, FlushStall: opt.FlushStall}
	var backend wallBackend[K]
	var co wallCoalescer[K]
	var sharded *ShardedServer[K]
	var metricsFn func() Metrics
	var levelWidths []int
	if opt.Shards > 1 {
		s, err := BuildSharded(pairs, treeOpt, opt.Shards)
		if err != nil {
			return WallResult{}, err
		}
		backend, sharded = s, s
		metricsFn = s.Metrics
		levelWidths = s.members()[0].Tree().LevelWidths()
		co = s.Coalesce(coOpt)
		if opt.Rebalance != nil {
			s.StartRebalancer(*opt.Rebalance)
		}
	} else {
		tree, err := core.Build(pairs, treeOpt)
		if err != nil {
			return WallResult{}, err
		}
		levelWidths = tree.LevelWidths()
		defer tree.Close()
		srv := NewServer(tree)
		backend = srv
		metricsFn = srv.Metrics
		co = NewCoalescer(srv, coOpt)
	}
	defer backend.Close()
	defer co.Close()

	// The update pump: clients hand write ops to a channel; one
	// goroutine forms batches of UpdateBatch (or whatever accumulated
	// in ~2ms) and applies each with one Server.Update — the paper's
	// batch-update discipline. writing is set for the span of each
	// batch so clients can tag lookups that overlapped a write.
	var writing atomic.Bool
	var updateErr error
	var rebuilds int64
	var writeNs int64
	updates := make(chan cpubtree.Op[K], 4*opt.UpdateBatch)
	pumpDone := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		// One backing array for the pump's whole life: flush() truncates
		// to len 0 and refills in place, so the steady-state pump
		// allocates nothing per batch.
		batch := make([]cpubtree.Op[K], 0, opt.UpdateBatch)
		var stale int
		flush := func() {
			stale = 0
			if len(batch) == 0 || updateErr != nil {
				batch = batch[:0]
				return
			}
			writing.Store(true)
			w0 := time.Now()
			_, err := backend.Update(batch, core.AsyncParallel)
			wd := time.Since(w0)
			writeNs += wd.Nanoseconds()
			writing.Store(false)
			// Feed the write span into adaptive admission (no-op when
			// static): a clone-heavy batch shrinks the read window.
			co.NoteSpan(wd)
			if err != nil {
				updateErr = err
			}
			batch = batch[:0]
		}
		// The straggler ticker bounds update latency when clients
		// trickle. Ticker flushes are gated on fill level: a flush that
		// misses the leaf gaps pays a whole-tree clone, so flushing a
		// near-empty batch every tick would turn the swap rate into a
		// function of the tick rate instead of the update rate. A
		// quarter-full batch flushes immediately; anything smaller waits
		// up to four ticks (~40ms).
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		var rebuildC <-chan time.Time
		if opt.RebuildEvery > 0 {
			rt := time.NewTicker(opt.RebuildEvery)
			defer rt.Stop()
			rebuildC = rt.C
		}
		for {
			select {
			case op := <-updates:
				batch = append(batch, op)
				if len(batch) >= opt.UpdateBatch {
					flush()
				}
			case <-ticker.C:
				stale++
				if len(batch) >= opt.UpdateBatch/4 || stale >= 4 {
					flush()
				}
			case <-rebuildC:
				if updateErr != nil {
					continue
				}
				writing.Store(true)
				w0 := time.Now()
				_, err := backend.Rebuild(pairs)
				writeNs += time.Since(w0).Nanoseconds()
				writing.Store(false)
				if err != nil {
					updateErr = err
				}
				rebuilds++
			case <-pumpDone:
				for {
					select {
					case op := <-updates:
						batch = append(batch, op)
					default:
						flush()
						return
					}
				}
			}
		}
	}()

	type clientStats struct {
		lookups   int64
		updates   int64
		shed      int64
		lats      []time.Duration
		writeLats []time.Duration
		err       error
	}
	// inflight is one pipelined request awaiting its reply.
	type inflight struct {
		ch     <-chan Result[K]
		t0     time.Time
		during bool
	}
	stats := make([]clientStats, opt.Clients)
	var running atomic.Bool
	running.Store(true)
	var wg sync.WaitGroup
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for c := 0; c < opt.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.lats = make([]time.Duration, 0, maxWallSamples)
			st.writeLats = make([]time.Duration, 0, maxWallSamples/8)
			rng := rand.New(rand.NewSource(int64(c)*0x9E3779B9 + 1))
			// Ring of in-flight submissions: each client keeps Depth
			// lookups pipelined, so coalescer batches fill by size
			// instead of timing out half-empty.
			ring := make([]inflight, opt.Depth)
			var head, n int
			drain := func() bool {
				fl := ring[head]
				head = (head + 1) % opt.Depth
				n--
				res := <-fl.ch
				if res.Err != nil {
					// A shed is an overload signal, not a run failure:
					// count it and honour the retry-after hint (capped so
					// one conservative hint cannot idle a client for a
					// whole phase).
					if errors.Is(res.Err, ErrOverloaded) {
						st.shed++
						var oe *OverloadError
						if errors.As(res.Err, &oe) && oe.RetryAfter > 0 {
							time.Sleep(min(oe.RetryAfter, 20*time.Millisecond))
						}
						return true
					}
					st.err = res.Err
					return false
				}
				lat := time.Since(fl.t0)
				st.lookups++
				if len(st.lats) < cap(st.lats) {
					st.lats = append(st.lats, lat)
				}
				if fl.during && len(st.writeLats) < cap(st.writeLats) {
					st.writeLats = append(st.writeLats, lat)
				}
				return true
			}
			for running.Load() {
				p := pairs[rng.Intn(len(pairs))]
				if opt.UpdateFrac > 0 && rng.Float64() < opt.UpdateFrac {
					if opt.UpdateSkew > 0 && rng.Float64() < opt.UpdateSkew {
						p = pairs[rng.Intn(max(1, len(pairs)/4))]
					}
					// Blocking hand-off: client-perceived update cost is
					// the enqueue; the pump amortises the batch.
					updates <- cpubtree.Op[K]{Key: p.Key, Value: p.Value + 1}
					st.updates++
					continue
				}
				if n == opt.Depth && !drain() {
					return
				}
				ring[(head+n)%opt.Depth] = inflight{ch: co.Submit(p.Key), t0: time.Now(), during: writing.Load()}
				n++
			}
			for n > 0 {
				if !drain() {
					return
				}
			}
		}(c)
	}
	time.Sleep(opt.Duration)
	running.Store(false)
	wg.Wait()
	elapsed := time.Since(start)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	close(pumpDone)
	pumpWG.Wait()
	if updateErr != nil {
		return WallResult{}, updateErr
	}

	var res WallResult
	res.Elapsed = elapsed
	var lats, writeLats []time.Duration
	for i := range stats {
		st := &stats[i]
		if st.err != nil {
			return WallResult{}, st.err
		}
		res.Lookups += st.lookups
		res.Updates += st.updates
		lats = append(lats, st.lats...)
		writeLats = append(writeLats, st.writeLats...)
	}
	res.MQPS = float64(res.Lookups) / elapsed.Seconds() / 1e6
	res.Shed = co.Shed()
	res.ShedRate = co.ShedRate()
	res.AdmitWindow = co.AdmitWindow()
	res.TargetP99 = opt.TargetP99
	res.P50, res.P95, res.P99 = percentiles(lats)
	res.DuringWriteP50, _, res.DuringWriteP99 = percentiles(writeLats)
	res.DuringWriteSamples = len(writeLats)
	res.WriteTime = time.Duration(writeNs)
	if res.Lookups > 0 {
		res.AllocsPerLookup = float64(ms1.Mallocs-ms0.Mallocs) / float64(res.Lookups)
	}
	res.UpdateMQPS = float64(res.Updates) / elapsed.Seconds() / 1e6
	res.Batches = co.Batches()
	res.Folded = co.Folded()
	m := metricsFn()
	res.NodeProbes = m.NodeProbes
	res.ProbesSaved = m.ProbesSaved
	res.Layout = treeOpt.Layout.String()
	res.LevelWidths = levelWidths
	res.LineBytes = m.NodeProbes * keys.LineBytes
	res.InPlaceBatches = m.InPlaceApplied
	res.CloneFallbacks = m.CloneFallbacks
	res.ClonedNodes = m.ClonedNodes
	res.ClonedBytes = m.ClonedBytes
	res.Swaps = backend.Swaps()
	res.Rebuilds = rebuilds
	if sharded != nil {
		res.Shards = sharded.Shards()
		for _, m := range sharded.ShardMetrics() {
			res.ShardSwaps = append(res.ShardSwaps, m.Swaps)
			res.ShardUpdates = append(res.ShardUpdates, m.Updates)
		}
		rs := sharded.RebalanceStats()
		res.Rebalances, res.Splits, res.Merges = rs.Rebalances, rs.Splits, rs.Merges
		res.Epoch = rs.Epoch
	}
	return res, nil
}

// percentiles returns the p50, p95 and p99 of the samples (0 when
// empty). The slice is sorted in place.
func percentiles(lats []time.Duration) (p50, p95, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	slices.Sort(lats)
	return lats[len(lats)/2],
		lats[int(float64(len(lats)-1)*0.95)],
		lats[int(float64(len(lats)-1)*0.99)]
}
