package serve

import (
	"fmt"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/epoch"
)

// Online shard rebalancing (DESIGN §6). BuildSharded cuts the key space
// into equal runs of the INITIAL distribution; a skewed update stream
// then concentrates write work — and its O(shard) clone cost — on a few
// hot shards while cold shards idle. Rebalancing moves the split keys
// at runtime: a hot shard splits in two, a cold adjacent pair merges,
// each change installed as ONE epoch transition of the shared registry,
// so readers always observe either the old layout or the new one and
// never a mix.
//
// A rebalance step quiesces only the write plane: it takes the pump
// lock (excluding new dispatches), drains in-flight pump jobs with a
// barrier handshake, rebuilds the affected shards' trees from their
// quiesced versions, and transitions the registry — untouched shards
// carry their current version over by reference (epoch.KeepSlot), so
// the work is proportional to the shards being reshaped. Readers are
// never blocked: they pin epochs through the whole window, and in-flight
// reads on replaced members finish on their pinned versions. Replaced
// members' counters fold into the retired accumulator so aggregate
// metrics stay continuous; replacement members start with fresh
// breakers under the default resilience policy.

// RebalanceOptions tunes the imbalance detector. The zero value is
// ready to use.
type RebalanceOptions struct {
	// HotFraction splits a shard once it absorbs more than this share
	// of the window's updates (and the layout is below MaxShards).
	// Default 0.5.
	HotFraction float64
	// ColdFraction merges an adjacent shard pair once their combined
	// share of the window's updates falls below this (and the layout is
	// above MinShards). Default 0.05; negative disables merging.
	ColdFraction float64
	// MinOps is the update volume a window must accumulate before the
	// detector acts — below it, shares are noise. Default 4096.
	MinOps int64
	// MaxShards caps splits; 0 means twice the shard count at decision
	// time. MinShards floors merges; 0 means 2.
	MaxShards int
	MinShards int
	// Interval is the background rebalancer's poll period. Default
	// 100ms.
	Interval time.Duration
}

func (o *RebalanceOptions) fill() {
	if o.HotFraction <= 0 {
		o.HotFraction = 0.5
	}
	if o.ColdFraction == 0 {
		o.ColdFraction = 0.05
	}
	if o.MinOps <= 0 {
		o.MinOps = 4096
	}
	if o.MinShards <= 0 {
		o.MinShards = 2
	}
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
}

// RebalanceStats describes the rebalancing state: the registry epoch,
// the split-key table generation, and the decision counters.
type RebalanceStats struct {
	Epoch      uint64
	TableGen   uint64
	Shards     int
	Rebalances int64
	Splits     int64
	Merges     int64
	Last       string // human-readable description of the last action
}

// RebalanceStats returns the current rebalancing counters.
func (s *Server[K]) RebalanceStats() RebalanceStats {
	m := s.reg.Meta()
	st := RebalanceStats{
		Epoch:      s.reg.Epoch(),
		TableGen:   m.gen,
		Shards:     len(m.subs),
		Rebalances: s.rebalances.Load(),
		Splits:     s.splits.Load(),
		Merges:     s.merges.Load(),
	}
	if p := s.lastRb.Load(); p != nil {
		st.Last = *p
	}
	return st
}

func (s *Server[K]) noteRebalance(desc string) {
	s.rebalances.Add(1)
	s.lastRb.Store(&desc)
}

// StartRebalancer runs the imbalance detector on a background ticker
// until Close. Starting twice is a no-op; decisions and errors are
// reported through RebalanceStats.
func (s *Server[K]) StartRebalancer(opt RebalanceOptions) {
	opt.fill()
	s.rbMu.Lock()
	defer s.rbMu.Unlock()
	if s.rbStop != nil {
		return
	}
	s.rbStop = make(chan struct{})
	s.rbWG.Add(1)
	go func() {
		defer s.rbWG.Done()
		tick := time.NewTicker(opt.Interval)
		defer tick.Stop()
		for {
			select {
			case <-s.rbStop:
				return
			case <-tick.C:
				s.CheckRebalance(opt)
			}
		}
	}()
}

// CheckRebalance runs one detector pass: it compares each shard's
// update count against the last observation window and, once the window
// holds at least MinOps updates, splits the hottest shard past
// HotFraction or merges the coldest adjacent pair below ColdFraction —
// at most one action per pass. It returns a description of the action
// taken ("" for none).
func (s *Server[K]) CheckRebalance(opt RebalanceOptions) (string, error) {
	opt.fill()
	s.rbMu.Lock()
	defer s.rbMu.Unlock()
	m := s.reg.Meta()
	counts := make([]int64, len(m.subs))
	for i, sub := range m.subs {
		counts[i] = sub.updates.Load()
	}
	if m.gen != s.rbLastGen || len(counts) != len(s.rbLast) {
		// Layout changed (or first pass): restart the window.
		s.rbLastGen, s.rbLast = m.gen, counts
		return "", nil
	}
	var total int64
	deltas := make([]int64, len(counts))
	for i := range counts {
		deltas[i] = counts[i] - s.rbLast[i]
		total += deltas[i]
	}
	if total < opt.MinOps {
		// Keep accumulating the window.
		return "", nil
	}
	maxShards := opt.MaxShards
	if maxShards <= 0 {
		maxShards = 2 * len(counts)
	}
	hot, hotShare := -1, 0.0
	for i, d := range deltas {
		if share := float64(d) / float64(total); share > hotShare {
			hot, hotShare = i, share
		}
	}
	if hotShare > opt.HotFraction && len(counts) < maxShards {
		if err := s.splitShard(hot); err != nil {
			return "", err
		}
		s.restartWindow()
		return fmt.Sprintf("split shard %d (%.0f%% of %d updates)", hot, hotShare*100, total), nil
	}
	if opt.ColdFraction > 0 && len(counts) > opt.MinShards {
		cold, coldShare := -1, 1.1
		for i := 0; i+1 < len(deltas); i++ {
			if share := float64(deltas[i]+deltas[i+1]) / float64(total); share < coldShare {
				cold, coldShare = i, share
			}
		}
		if cold >= 0 && coldShare < opt.ColdFraction {
			if err := s.mergeShards(cold); err != nil {
				return "", err
			}
			s.restartWindow()
			return fmt.Sprintf("merged shards %d+%d (%.0f%% of %d updates)", cold, cold+1, coldShare*100, total), nil
		}
	}
	// Nothing actionable: slide the window so shares track recent
	// traffic rather than all history.
	s.rbLastGen, s.rbLast = m.gen, counts
	return "", nil
}

// restartWindow re-bases the detector window on the post-rebalance
// layout. Callers hold rbMu.
func (s *Server[K]) restartWindow() {
	m := s.reg.Meta()
	counts := make([]int64, len(m.subs))
	for i, sub := range m.subs {
		counts[i] = sub.updates.Load()
	}
	s.rbLastGen, s.rbLast = m.gen, counts
}

// SplitShard splits shard i at its median key into two shards,
// installed as one epoch transition. Readers are never blocked; the
// write plane is quiesced for the duration of materialising and
// rebuilding the one shard.
func (s *Server[K]) SplitShard(i int) error {
	s.rbMu.Lock()
	defer s.rbMu.Unlock()
	return s.splitShard(i)
}

// MergeShards merges shards i and i+1 into one, installed as one epoch
// transition.
func (s *Server[K]) MergeShards(i int) error {
	s.rbMu.Lock()
	defer s.rbMu.Unlock()
	return s.mergeShards(i)
}

// quiesceWrites takes the pump lock and drains in-flight pump jobs, so
// the shard trees are stable until the returned unlock runs. Callers
// hold rbMu. Returns ErrClosed after Close.
func (s *Server[K]) quiesceWrites() error {
	s.pumpMu.Lock()
	if s.closed {
		s.pumpMu.Unlock()
		return ErrClosed
	}
	// Barrier handshake: dispatches hand jobs to pumps under the read
	// lock we now exclude, so after one barrier job per pump drains,
	// every previously dispatched job has fully executed (the channels
	// are unbuffered — acceptance of the barrier means the pump finished
	// everything before it).
	done := make(chan shardDone, len(s.pumps))
	for _, ch := range s.pumps {
		ch <- shardJob[K]{barrier: true, done: done}
	}
	for range s.pumps {
		<-done
	}
	return nil
}

// splitShard is SplitShard's body; callers hold rbMu.
func (s *Server[K]) splitShard(i int) error {
	if err := s.quiesceWrites(); err != nil {
		return err
	}
	defer s.pumpMu.Unlock()
	m := s.reg.Meta()
	if i < 0 || i >= len(m.subs) {
		return fmt.Errorf("serve: split: no shard %d in a %d-shard layout", i, len(m.subs))
	}
	old := s.reg.Current(i)
	pairs := materialisePairs(old)
	if len(pairs) < 2 {
		return fmt.Errorf("serve: split: shard %d holds %d pairs, cannot split", i, len(pairs))
	}
	mid := len(pairs) / 2
	splitKey := pairs[mid].Key
	left, err := core.Build(pairs[:mid], s.opt)
	if err != nil {
		return fmt.Errorf("serve: split shard %d: %w", i, err)
	}
	right, err := core.Build(pairs[mid:], s.opt)
	if err != nil {
		left.Close()
		return fmt.Errorf("serve: split shard %d: %w", i, err)
	}

	// Shard j's lower bound is bounds[j-1]: inserting the split key at
	// index i makes it the new shard i+1's lower bound and shifts the
	// later bounds one slot up, exactly tracking the shifted shards.
	nb := make([]K, 0, len(m.bounds)+1)
	nb = append(nb, m.bounds[:i]...)
	nb = append(nb, splitKey)
	nb = append(nb, m.bounds[i:]...)

	ls := newMember(left, s.reg, i)
	rs := newMember(right, s.reg, i+1)
	ns := make([]*member[K], 0, len(m.subs)+1)
	ns = append(ns, m.subs[:i]...)
	ns = append(ns, ls, rs)
	ns = append(ns, m.subs[i+1:]...)

	s.absorbRetired(m.subs[i])
	slots := make([]epoch.Slot[*core.Tree[K]], 0, len(ns))
	for j := 0; j < i; j++ {
		slots = append(slots, epoch.KeepSlot[*core.Tree[K]](j))
	}
	slots = append(slots, epoch.NewSlot(left), epoch.NewSlot(right))
	for j := i + 1; j < len(m.subs); j++ {
		slots = append(slots, epoch.KeepSlot[*core.Tree[K]](j))
	}
	s.reg.Transition(slots, shardMeta[K]{bounds: nb, subs: ns, gen: m.gen + 1})
	for j, sub := range ns {
		sub.slot.Store(int32(j))
	}
	s.resizePumps(len(ns))
	s.splits.Add(1)
	s.noteRebalance(fmt.Sprintf("split shard %d at %v (gen %d, %d shards)", i, splitKey, m.gen+1, len(ns)))
	// The write plane is still quiesced here, so the barrier the hook
	// logs lands between the last pre-layout record and the first
	// post-layout one in every WAL partition.
	s.notifyLayout(m.gen+1, len(ns))
	return nil
}

// mergeShards is MergeShards's body; callers hold rbMu.
func (s *Server[K]) mergeShards(i int) error {
	if err := s.quiesceWrites(); err != nil {
		return err
	}
	defer s.pumpMu.Unlock()
	m := s.reg.Meta()
	if i < 0 || i+1 >= len(m.subs) {
		return fmt.Errorf("serve: merge: no adjacent pair %d,%d in a %d-shard layout", i, i+1, len(m.subs))
	}
	lo := materialisePairs(s.reg.Current(i))
	pairs := append(lo, materialisePairs(s.reg.Current(i+1))...)
	merged, err := core.Build(pairs, s.opt)
	if err != nil {
		return fmt.Errorf("serve: merge shards %d+%d: %w", i, i+1, err)
	}

	// Dropping bounds[i] — the retiring boundary between i and i+1 —
	// extends shard i over both ranges.
	nb := make([]K, 0, len(m.bounds)-1)
	nb = append(nb, m.bounds[:i]...)
	nb = append(nb, m.bounds[i+1:]...)

	ms := newMember(merged, s.reg, i)
	ns := make([]*member[K], 0, len(m.subs)-1)
	ns = append(ns, m.subs[:i]...)
	ns = append(ns, ms)
	ns = append(ns, m.subs[i+2:]...)

	s.absorbRetired(m.subs[i])
	s.absorbRetired(m.subs[i+1])
	slots := make([]epoch.Slot[*core.Tree[K]], 0, len(ns))
	for j := 0; j < i; j++ {
		slots = append(slots, epoch.KeepSlot[*core.Tree[K]](j))
	}
	slots = append(slots, epoch.NewSlot(merged))
	for j := i + 2; j < len(m.subs); j++ {
		slots = append(slots, epoch.KeepSlot[*core.Tree[K]](j))
	}
	s.reg.Transition(slots, shardMeta[K]{bounds: nb, subs: ns, gen: m.gen + 1})
	for j, sub := range ns {
		sub.slot.Store(int32(j))
	}
	s.resizePumps(len(ns))
	s.merges.Add(1)
	s.noteRebalance(fmt.Sprintf("merged shards %d+%d (gen %d, %d shards)", i, i+1, m.gen+1, len(ns)))
	s.notifyLayout(m.gen+1, len(ns))
	return nil
}

// resizePumps replaces the pump set to match a new shard count. Callers
// hold the pump write lock with the old pumps drained, so closing them
// and waiting is safe.
func (s *Server[K]) resizePumps(n int) {
	if n == len(s.pumps) {
		return
	}
	for _, ch := range s.pumps {
		close(ch)
	}
	s.pumpWG.Wait()
	s.pumps = make([]chan shardJob[K], n)
	for i := range s.pumps {
		s.pumps[i] = make(chan shardJob[K])
		s.pumpWG.Add(1)
		go s.pumpLoop(s.pumps[i])
	}
}
