package serve

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// TestSplitAndMergeShards: manual split and merge each install a new
// layout as one epoch transition — key set intact, every lookup still
// correct, aggregate metrics continuous across the retired shard, and
// the epoch/table generation advanced.
func TestSplitAndMergeShards(t *testing.T) {
	s, pairs := newShardedServer(t, core.Regular, 1<<12, 4)

	// Touch shard 1 with some updates so continuity of the aggregate
	// Updates counter across its retirement is observable.
	ops := make([]cpubtree.Op[uint64], 0, 32)
	for i := 0; i < 32; i++ {
		p := pairs[len(pairs)/4+i]
		ops = append(ops, cpubtree.Op[uint64]{Key: p.Key, Value: p.Value})
	}
	if _, err := s.Update(ops, core.Synchronized); err != nil {
		t.Fatal(err)
	}
	before := s.Metrics()
	epochBefore := s.Epoch()

	if err := s.SplitShard(1); err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 5 || len(s.Bounds()) != 4 {
		t.Fatalf("post-split layout: %d shards, %d bounds", s.Shards(), len(s.Bounds()))
	}
	bounds := s.Bounds()
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] >= bounds[i] {
			t.Fatalf("bounds not strictly increasing: %v", bounds)
		}
	}
	if s.Epoch() <= epochBefore {
		t.Fatalf("epoch did not advance across split: %d -> %d", epochBefore, s.Epoch())
	}
	if s.NumPairs() != len(pairs) {
		t.Fatalf("split changed pair count: %d, want %d", s.NumPairs(), len(pairs))
	}
	after := s.Metrics()
	if after.Updates != before.Updates || after.Swaps != before.Swaps {
		t.Fatalf("metrics discontinuous across split: updates %d->%d swaps %d->%d",
			before.Updates, after.Updates, before.Swaps, after.Swaps)
	}
	rb := s.RebalanceStats()
	if rb.Splits != 1 || rb.Rebalances != 1 || rb.TableGen != 2 || rb.Shards != 5 {
		t.Fatalf("rebalance stats after split: %+v", rb)
	}

	if err := s.MergeShards(1); err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 4 || len(s.Bounds()) != 3 {
		t.Fatalf("post-merge layout: %d shards, %d bounds", s.Shards(), len(s.Bounds()))
	}
	rb = s.RebalanceStats()
	if rb.Merges != 1 || rb.Rebalances != 2 || rb.TableGen != 3 {
		t.Fatalf("rebalance stats after merge: %+v", rb)
	}

	for i := 0; i < len(pairs); i += 7 {
		p := pairs[i]
		if v, ok := s.Lookup(p.Key); !ok || v != p.Value {
			t.Fatalf("post-rebalance Lookup(%d) = (%d,%v), want %d", p.Key, v, ok, p.Value)
		}
	}
	sc := s.ScanConsistent(0, len(pairs))
	if len(sc) != len(pairs) {
		t.Fatalf("consistent scan len %d, want %d", len(sc), len(pairs))
	}
	for i, p := range sc {
		if p != pairs[i] {
			t.Fatalf("consistent scan[%d] = %v, want %v", i, p, pairs[i])
		}
	}
	// Writes keep landing on the post-rebalance layout.
	if _, err := s.Update([]cpubtree.Op[uint64]{{Key: pairs[0].Key, Value: 777}}, core.Synchronized); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Lookup(pairs[0].Key); !ok || v != 777 {
		t.Fatalf("post-rebalance write invisible: (%d,%v)", v, ok)
	}
}

// TestShardedReportsSurviveRebalance: every report — Stats, ShardStats,
// Describe, LevelWidths, LayoutAdvice — stays safe to call while a
// fixed number of split+merge rounds retire members under it, and each
// report is one layout: the stitched pair count is exact, ShardStats
// carries T-1 bounds for T shards, and Describe's header names the
// sections that follow. A report that reached a member outside its own
// pin read a retired one (and panicked) or mixed two layouts.
func TestShardedReportsSurviveRebalance(t *testing.T) {
	s, pairs := newShardedServer(t, core.Regular, 1<<12, 2)
	rounds := 256
	if testing.Short() {
		rounds = 32
	}
	reports := map[string]func() error{
		"Stats": func() error {
			if n := s.Stats().NumPairs; n != len(pairs) {
				return fmt.Errorf("Stats.NumPairs = %d, want %d", n, len(pairs))
			}
			return nil
		},
		"ShardStats": func() error {
			bounds, stats, metrics := s.ShardStats()
			n := 0
			for _, st := range stats {
				n += st.NumPairs
			}
			if len(bounds)+1 != len(stats) || len(metrics) != len(stats) || n != len(pairs) {
				return fmt.Errorf("ShardStats view: %d bounds, %d stats, %d metrics, %d pairs", len(bounds), len(stats), len(metrics), n)
			}
			return nil
		},
		"Describe": func() error {
			d := s.Describe()
			var shards int
			if _, err := fmt.Sscanf(d, "sharded serving: %d shards", &shards); err != nil || strings.Count(d, "--- shard ") != shards {
				return fmt.Errorf("Describe header and sections disagree: %q", d[:min(len(d), 80)])
			}
			return nil
		},
		"LevelWidths+LayoutAdvice": func() error {
			s.LevelWidths()
			s.LayoutAdvice()
			return nil
		},
	}
	var stop atomic.Bool
	var wg, running sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for name, report := range reports {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked under a rebalance: %v", name, r)
				}
			}()
			running.Done()
			for !stop.Load() {
				if err := report(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	running.Wait() // every reader is running before the first rebalance
	for i := 0; i < rounds; i++ {
		if err := s.SplitShard(0); err != nil {
			t.Fatalf("round %d: SplitShard: %v", i, err)
		}
		if err := s.MergeShards(0); err != nil {
			t.Fatalf("round %d: MergeShards: %v", i, err)
		}
	}
	if rs := s.RebalanceStats(); rs.Splits != int64(rounds) || rs.Merges != int64(rounds) || rs.Shards != 2 {
		t.Fatalf("after %d rounds: %+v", rounds, rs)
	}
}

// TestSplitErrors: out-of-range indexes are rejected and the layout is
// untouched.
func TestSplitErrors(t *testing.T) {
	s, _ := newShardedServer(t, core.Regular, 1<<10, 2)
	if err := s.SplitShard(2); err == nil {
		t.Fatal("split of missing shard succeeded")
	}
	if err := s.MergeShards(1); err == nil {
		t.Fatal("merge past the last shard succeeded")
	}
	if s.Shards() != 2 || s.RebalanceStats().Rebalances != 0 {
		t.Fatalf("failed rebalance mutated layout: %+v", s.RebalanceStats())
	}
}

// TestScanConsistentOracleUnderRebalance is the torn-cut oracle, run
// under -race by the race CI lane. A writer serialises acked writes
// left-to-right: it writes v to a key in the lowest shard, waits for
// the ack, then writes v to a key in the highest shard — so at every
// real-time instant value(hi) <= value(lo). A cross-shard cut that is
// NOT atomic can catch the high key's new value together with the low
// key's old one (the plain Scan stitch reads the low shard first);
// ScanConsistent pins one epoch for the whole stitch and must never
// observe that inversion, even while forced split/merge cycles replace
// the layout underneath it. The scan must also stay gap- and
// duplicate-free: the key set is constant, so every cut returns exactly
// the initial keys in strict order.
func TestScanConsistentOracleUnderRebalance(t *testing.T) {
	s, pairs := newShardedServer(t, core.Regular, 1<<12, 4)
	kLo := pairs[0].Key
	kHi := pairs[len(pairs)-1].Key
	const base = uint64(1) << 40

	// Establish the invariant before readers start.
	for _, k := range []uint64{kLo, kHi} {
		if _, err := s.Update([]cpubtree.Op[uint64]{{Key: k, Value: base}}, core.Synchronized); err != nil {
			t.Fatal(err)
		}
	}

	// The forcer drives termination: writers and readers run until it
	// has completed a fixed number of split/merge cycles, so the test is
	// immune to scheduling starvation on small GOMAXPROCS.
	done := make(chan struct{})
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	errc := make(chan string, 8)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Sprintf(format, args...):
		default:
		}
	}

	// Writer: value(hi) trails value(lo) by construction.
	var lastAcked uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := base + 1; !finished(); v++ {
			if _, err := s.Update([]cpubtree.Op[uint64]{{Key: kLo, Value: v}}, core.Synchronized); err != nil {
				report("writer lo: %v", err)
				return
			}
			if _, err := s.Update([]cpubtree.Op[uint64]{{Key: kHi, Value: v}}, core.Synchronized); err != nil {
				report("writer hi: %v", err)
				return
			}
			lastAcked = v
		}
	}()

	// Rebalance forcer: split and re-merge the bottom shard in a loop,
	// so cuts constantly straddle layout transitions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := s.SplitShard(0); err != nil {
				report("split: %v", err)
				return
			}
			if err := s.MergeShards(0); err != nil {
				report("merge: %v", err)
				return
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !finished() {
				cut := s.ScanConsistent(0, len(pairs)+8)
				if len(cut) != len(pairs) {
					report("cut has %d pairs, want %d", len(cut), len(pairs))
					return
				}
				var vLo, vHi uint64
				for i, p := range cut {
					if p.Key != pairs[i].Key {
						report("cut[%d] key %d, want %d (gap or duplicate)", i, p.Key, pairs[i].Key)
						return
					}
					switch p.Key {
					case kLo:
						vLo = p.Value
					case kHi:
						vHi = p.Value
					}
				}
				if vHi > vLo {
					report("torn cut: value(hi)=%d > value(lo)=%d", vHi, vLo)
					return
				}
			}
		}()
	}

	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	// Zero lost acked writes across all the rebalances.
	if v, ok := s.Lookup(kLo); !ok || v < lastAcked {
		t.Fatalf("acked write lost on lo: (%d,%v), last acked %d", v, ok, lastAcked)
	}
	if v, ok := s.Lookup(kHi); !ok || v < lastAcked {
		t.Fatalf("acked write lost on hi: (%d,%v), last acked %d", v, ok, lastAcked)
	}
	if s.RebalanceStats().Rebalances == 0 {
		t.Fatal("oracle ran without any rebalance")
	}
}

// TestSplitUnderSkewedWrites: writers drive a 90/10 skewed update
// stream; once they have acked a fixed number of batches, the test
// reads the per-shard update counts an operator sees in SHARDSTATS and
// splits the hottest shard online while the writers keep running. The
// split loses no acked write and keeps the key set, and the new
// split-key table divides the same skewed stream measurably better. The
// handoffs are counts and channels — no sleep, no deadline loop. CI's
// serving-oracles job runs it under -race -cpu 1,2,4.
func TestSplitUnderSkewedWrites(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<13, 42)
	s, err := BuildSharded(pairs, core.Options{Variant: core.Regular, BucketSize: 64}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hotPool := pairs[:len(pairs)/4] // initial shard 0's range
	// skewed draws one pair of the 90/10 stream from the LCG state *rng.
	skewed := func(rng *uint64) keys.Pair[uint64] {
		next := func() uint64 { *rng = *rng*6364136223846793005 + 1442695040888963407; return *rng >> 33 }
		p := pairs[next()%uint64(len(pairs))]
		if next()%10 < 9 { // 90% hot
			p = hotPool[next()%uint64(len(hotPool))]
		}
		return p
	}
	// spread routes one synthetic window of the skewed stream through
	// the CURRENT split-key table and returns the hottest shard's share
	// — a deterministic measure of how the layout divides the skew.
	spread := func() (maxShare float64) {
		probe := uint64(12345)
		counts := make([]int64, s.Shards())
		const window = 4096
		for i := 0; i < window; i++ {
			counts[s.route(skewed(&probe).Key)]++
		}
		for _, c := range counts {
			maxShare = max(maxShare, float64(c)/float64(window))
		}
		return maxShare
	}

	// Pre-split: the initial equal-cut table sends ~90% of the stream to
	// one shard.
	preMax := spread()
	if preMax < 0.8 {
		t.Fatalf("skew generator too weak: hottest share %.2f", preMax)
	}

	// Each writer owns the keys congruent to its index, so the last
	// value it acked for a key is the value that key must read back.
	// A writer acks `pre` batches, reports ready, acks `mid` more while
	// the split runs, waits for the split, then acks `post` batches
	// through the new layout.
	const writers, batch, pre, mid, post = 2, 16, 32, 16, 32
	acked := make([]map[uint64]uint64, writers)
	var ready, wg sync.WaitGroup
	ready.Add(writers)
	split := make(chan struct{})
	for w := range writers {
		acked[w] = make(map[uint64]uint64)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := uint64(w + 1)
			ops := make([]cpubtree.Op[uint64], 0, batch)
			for b := 0; b < pre+mid+post; b++ {
				switch b {
				case pre:
					ready.Done()
				case pre + mid:
					<-split
				}
				ops = ops[:0]
				for len(ops) < batch {
					if p := skewed(&rng); p.Key%writers == uint64(w) {
						ops = append(ops, cpubtree.Op[uint64]{Key: p.Key, Value: uint64(w+1)<<32 | uint64(b)})
					}
				}
				if _, err := s.Update(ops, core.Synchronized); err != nil {
					t.Errorf("writer %d: skewed update: %v", w, err)
					if b < pre {
						ready.Done()
					}
					return
				}
				for _, op := range ops {
					acked[w][op.Key] = op.Value
				}
			}
		}()
	}

	ready.Wait()
	_, _, metrics := s.ShardStats()
	hot := 0
	for i, m := range metrics {
		if m.Updates > metrics[hot].Updates {
			hot = i
		}
	}
	err = s.SplitShard(hot)
	close(split)
	wg.Wait()
	if err != nil {
		t.Fatalf("split of hottest shard %d: %v", hot, err)
	}
	if hot != 0 {
		t.Fatalf("hottest shard by update count is %d, want 0 (the hot range): %+v", hot, metrics)
	}

	postMax := spread()
	if postMax > preMax-0.15 {
		t.Fatalf("split did not improve spread: pre %.2f, post %.2f (stats %+v)",
			preMax, postMax, s.RebalanceStats())
	}
	for w := range acked {
		for k, v := range acked[w] {
			if got, ok := s.Lookup(k); !ok || got != v {
				t.Fatalf("acked write lost: key %d = (%d,%v), want %d", k, got, ok, v)
			}
		}
	}
	if s.NumPairs() != len(pairs) {
		t.Fatalf("split changed pair count: %d, want %d", s.NumPairs(), len(pairs))
	}
}

// TestRebalanceStatsOneState: RebalanceStats reads the epoch, the table
// generation, the shard count and the retile counters from one registry
// state. With no writes, every epoch step is a retile, so Epoch-TableGen
// is constant, the shard count and Splits-Merges follow the generation's
// parity (a split then a merge per round), Rebalances counts the
// generations since the first view and Last names the current one; a
// view that took any of them from another state than the generation
// breaks one of these.
func TestRebalanceStatsOneState(t *testing.T) {
	s, _ := newShardedServer(t, core.Regular, 1<<10, 2)
	first := s.RebalanceStats()
	offset := first.Epoch - first.TableGen
	rounds := 256
	if testing.Short() {
		rounds = 32
	}
	var stop atomic.Bool
	var wg, running sync.WaitGroup
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for range 2 {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			running.Done()
			for !stop.Load() {
				st := s.RebalanceStats()
				gens := st.TableGen - first.TableGen
				if st.Epoch-st.TableGen != offset || st.Shards != first.Shards+int(gens)%2 ||
					st.Rebalances != int64(gens) || st.Splits-st.Merges != int64(gens%2) ||
					gens > 0 && !strings.Contains(st.Last, fmt.Sprintf("(gen %d,", st.TableGen)) {
					t.Errorf("torn view: %+v (first %+v)", st, first)
					return
				}
			}
		}()
	}
	running.Wait()
	for i := 0; i < rounds; i++ {
		if err := s.SplitShard(0); err != nil {
			t.Fatalf("round %d: SplitShard: %v", i, err)
		}
		if err := s.MergeShards(0); err != nil {
			t.Fatalf("round %d: MergeShards: %v", i, err)
		}
	}
}

// TestConcurrentRetilesSerialise: two goroutines retile one server at
// once while writers and readers run. Retiles serialise on the
// exclusive pump lock alone, so each one builds on its predecessor's
// layout: the table generation counts every retile, the shard count is
// the initial one plus splits minus merges, the bounds stay strictly
// increasing, and every acked write reads back.
func TestConcurrentRetilesSerialise(t *testing.T) {
	s, pairs := newShardedServer(t, core.Regular, 1<<12, 4)
	rounds := 24
	if testing.Short() {
		rounds = 8
	}
	var splits, merges atomic.Int64
	done := make(chan struct{}) // closed once both retilers finished
	finished := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	var retilers, others sync.WaitGroup
	// Both retilers split and re-merge shard 0, so the shards they cut
	// are at least a quarter of the bottom one whatever the interleaving.
	for r := range 2 {
		retilers.Add(1)
		go func() {
			defer retilers.Done()
			for i := 0; i < rounds; i++ {
				if err := s.SplitShard(0); err != nil {
					t.Errorf("retiler %d round %d: SplitShard: %v", r, i, err)
					return
				}
				splits.Add(1)
				if err := s.MergeShards(0); err != nil {
					t.Errorf("retiler %d round %d: MergeShards: %v", r, i, err)
					return
				}
				merges.Add(1)
			}
		}()
	}

	// Writers own disjoint keys (index parity) and record what they
	// acked; readers check the constant key set stays visible.
	const writers = 2
	acked := make([]map[uint64]uint64, writers)
	for w := range writers {
		acked[w] = make(map[uint64]uint64)
		others.Add(1)
		go func() {
			defer others.Done()
			for v := uint64(1); !finished(); v++ {
				p := pairs[(int(v)*97*writers+w)%len(pairs)]
				if _, err := s.Update([]cpubtree.Op[uint64]{{Key: p.Key, Value: v}}, core.Synchronized); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				acked[w][p.Key] = v
			}
		}()
	}
	for r := range 2 {
		others.Add(1)
		go func() {
			defer others.Done()
			for i := r; !finished(); i += 31 {
				if _, ok := s.Lookup(pairs[i%len(pairs)].Key); !ok {
					t.Errorf("reader %d: key %d vanished", r, pairs[i%len(pairs)].Key)
					return
				}
			}
		}()
	}

	retilers.Wait()
	close(done)
	others.Wait()

	rs := s.RebalanceStats()
	n := splits.Load() + merges.Load()
	if rs.TableGen != 1+uint64(n) || rs.Splits != splits.Load() || rs.Merges != merges.Load() {
		t.Fatalf("table generation %d after %d successful retiles (%d splits, %d merges): %+v",
			rs.TableGen, n, splits.Load(), merges.Load(), rs)
	}
	if want := 4 + int(splits.Load()-merges.Load()); rs.Shards != want || s.Shards() != want {
		t.Fatalf("%d shards, want %d", rs.Shards, want)
	}
	bounds := s.Bounds()
	if len(bounds) != rs.Shards-1 {
		t.Fatalf("%d bounds for %d shards", len(bounds), rs.Shards)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i-1] >= bounds[i] {
			t.Fatalf("bounds not strictly increasing: %v", bounds)
		}
	}
	for w := range acked {
		for k, v := range acked[w] {
			if got, ok := s.Lookup(k); !ok || got != v {
				t.Fatalf("acked write lost: key %d = (%d,%v), want %d", k, got, ok, v)
			}
		}
	}
	if s.NumPairs() != len(pairs) {
		t.Fatalf("retiles changed pair count: %d, want %d", s.NumPairs(), len(pairs))
	}
}
