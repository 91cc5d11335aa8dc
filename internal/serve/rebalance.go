package serve

import (
	"fmt"

	"hbtree/internal/core"
	"hbtree/internal/epoch"
)

// Online shard retiling (DESIGN §6). BuildSharded cuts the key space
// into equal runs of the INITIAL distribution; an operator who sees a
// skewed update stream pile onto a few shards (SHARDSTATS) moves the
// split keys at runtime: a hot shard splits in two, a cold adjacent
// pair merges, each change installed as ONE epoch transition of the
// shared registry, so readers always observe either the old layout or
// the new one and never a mix. The layout changes only on these
// explicit commands: nothing retiles on its own.
//
// A retile quiesces only the write plane: it takes the pump lock
// exclusively (excluding new dispatches and any other retile), drains
// in-flight pump jobs with a barrier handshake, rebuilds the affected
// shards' trees from their quiesced versions, and transitions the
// registry — untouched shards carry their current version over by
// reference (epoch.KeepSlot), so the work is proportional to the shards
// being reshaped. Readers are never blocked: they pin epochs through
// the whole window, and in-flight reads on replaced members finish on
// their pinned versions. Replaced members' counters fold into the
// retired accumulator so aggregate metrics stay continuous; replacement
// members start with fresh breakers under the default resilience
// policy.

// RebalanceStats describes the retiling state: the registry epoch, the
// split-key table generation and shard count (all three from one
// registry state), and the split/merge counters.
type RebalanceStats struct {
	Epoch      uint64
	TableGen   uint64
	Shards     int
	Rebalances int64 // Splits + Merges
	Splits     int64
	Merges     int64
	Last       string // human-readable description of the last action
}

// retileRecord counts the retiles up to one layout and describes the
// last. It is immutable and published in that layout's shardMeta, so
// RebalanceStats reads it from the same registry state as the layout.
type retileRecord struct {
	splits, merges int64
	last           string
}

// RebalanceStats returns the current retiling counters, all from one
// registry state.
func (s *Server[K]) RebalanceStats() RebalanceStats {
	p := s.reg.Pin()
	defer p.Unpin()
	m := p.Meta()
	st := RebalanceStats{
		Epoch:    p.Epoch(),
		TableGen: m.gen,
		Shards:   len(m.subs),
	}
	if r := m.retile; r != nil {
		st.Splits, st.Merges, st.Last = r.splits, r.merges, r.last
	}
	st.Rebalances = st.Splits + st.Merges
	return st
}

// SplitShard splits shard i at its median key into two shards,
// installed as one epoch transition. Readers are never blocked; the
// write plane is quiesced for the duration of materialising and
// rebuilding the one shard.
func (s *Server[K]) SplitShard(i int) error {
	if err := s.quiesceWrites(); err != nil {
		return err
	}
	defer s.pumpMu.Unlock()
	m := s.reg.Meta()
	if i < 0 || i >= len(m.subs) {
		return fmt.Errorf("serve: split: no shard %d in a %d-shard layout", i, len(m.subs))
	}
	pairs := materialisePairs(s.reg.Current(i))
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
	s.retile(m, i, 1, []*core.Tree[K]{left, right}, []K{splitKey},
		fmt.Sprintf("split shard %d at %v", i, splitKey))
	return nil
}

// MergeShards merges shards i and i+1 into one, installed as one epoch
// transition.
func (s *Server[K]) MergeShards(i int) error {
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
	s.retile(m, i, 2, []*core.Tree[K]{merged}, nil,
		fmt.Sprintf("merged shards %d+%d", i, i+1))
	return nil
}

// quiesceWrites takes the pump lock exclusively and drains in-flight
// pump jobs, so the shard trees and the layout are stable — and no
// other retile runs — until the caller unlocks pumpMu. Returns
// ErrClosed after Close.
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

// retile replaces the n members at index i of layout m with one member
// per tree, as one epoch transition: cuts are the lower bounds of
// trees[1:], taking the place of the n-1 bounds between the replaced
// members; the new layout carries m's retile record with this action
// counted, as a split when it adds a shard and a merge otherwise, and
// described by what. It then restamps the members' slots, resizes the
// pump set and reports the action to the layout hook. Callers hold the
// quiesced write plane (quiesceWrites).
func (s *Server[K]) retile(m shardMeta[K], i, n int, trees []*core.Tree[K], cuts []K, what string) {
	// Shard j's lower bound is bounds[j-1], so the replaced members'
	// inner bounds are bounds[i:i+n-1].
	nb := make([]K, 0, len(m.bounds)-n+len(trees))
	nb = append(nb, m.bounds[:i]...)
	nb = append(nb, cuts...)
	nb = append(nb, m.bounds[i+n-1:]...)

	ns := make([]*member[K], 0, len(m.subs)-n+len(trees))
	slots := make([]epoch.Slot[*core.Tree[K]], 0, cap(ns))
	for j := 0; j < i; j++ {
		ns = append(ns, m.subs[j])
		slots = append(slots, epoch.KeepSlot[*core.Tree[K]](j))
	}
	for _, t := range trees {
		ns = append(ns, newMember(t, s.reg, len(ns)))
		slots = append(slots, epoch.NewSlot(t))
	}
	for j := i + n; j < len(m.subs); j++ {
		ns = append(ns, m.subs[j])
		slots = append(slots, epoch.KeepSlot[*core.Tree[K]](j))
	}

	for _, sub := range m.subs[i : i+n] {
		s.absorbRetired(sub)
	}
	gen := m.gen + 1
	rec := retileRecord{last: fmt.Sprintf("%s (gen %d, %d shards)", what, gen, len(ns))}
	if m.retile != nil {
		rec.splits, rec.merges = m.retile.splits, m.retile.merges
	}
	if len(trees) > n {
		rec.splits++
	} else {
		rec.merges++
	}
	s.reg.Transition(slots, shardMeta[K]{bounds: nb, subs: ns, gen: gen, retile: &rec})
	for j, sub := range ns {
		sub.slot.Store(int32(j))
	}
	s.resizePumps(len(ns))
	// The write plane is still quiesced here, so the barrier the hook
	// logs lands between the last pre-layout record and the first
	// post-layout one in every WAL partition.
	s.notifyLayout(gen, len(ns))
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
