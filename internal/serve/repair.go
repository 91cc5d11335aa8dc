package serve

import (
	"context"
	"runtime"
	"time"
)

// Background replica repair (DESIGN §7). When a batch update's device
// re-sync faults, the write is acknowledged on the host version and the
// tree is marked replica-stale: reads on it degrade to the CPU path
// until the NEXT write's mirror heals it. Under a read-mostly workload
// that next write may be a long time coming, so an acknowledged fault
// used to mean an open-ended degraded window.
//
// maybeRepair closes that window: the first stale acknowledgement kicks
// off a single-flight background task that re-mirrors the published
// version's I-segment to the device. Heal-on-next-mirror remains the
// fallback — if the repair itself keeps faulting, the bounded attempts
// run out and the next successful write restores the replica exactly as
// before.
//
// Safety: replicaStale is atomic and has been true for the published
// tree's whole life (the mark precedes publication), so no GPU-path
// reader can be mid-flight against the stale buffers when the repair
// swaps them — every reader that observed stale went to the CPU, and a
// reader that observes fresh is ordered after the new buffers were
// installed.

const (
	// repairAttempts bounds the re-mirror tries per repair task;
	// exhausted attempts fall back to heal-on-next-mirror.
	repairAttempts = 3
	// repairDelay spaces the attempts out. Repair is deliberately lazy —
	// it must not compete with foreground traffic for the device, and
	// under a fault storm the breaker should settle first.
	repairDelay = time.Millisecond
)

// maybeRepair starts the background repair task unless one is already
// in flight. Called from ackStaleSync with the writer slot held; the
// task itself runs without it.
func (s *member[K]) maybeRepair() {
	if s.repairing.CompareAndSwap(false, true) {
		go s.repairLoop()
	}
}

func (s *member[K]) repairLoop() {
	defer s.repairing.Store(false)
	for attempt := 0; attempt < repairAttempts; attempt++ {
		time.Sleep(repairDelay)
		runtime.Gosched() // stay low-priority: yield before touching the device
		done, ok := s.tryRepair()
		if done || !ok {
			return
		}
	}
}

// tryRepair re-mirrors the current version if it is still stale.
// done reports that no further attempts are needed (healed, or repaired
// by someone else); ok=false aborts the loop because the member can no
// longer repair (retired by a rebalance, or a writer deadline raced the
// close). A fault during the re-mirror leaves the tree stale for the
// next attempt.
func (s *member[K]) tryRepair() (done, ok bool) {
	// Hold the writer slot so the repair never races a clone/rebuild of
	// the same version, and resolve the tree through a pin so a
	// concurrent rebalance retiring this member aborts the task instead
	// of repairing an unreachable tree.
	if err := s.acquireWriter(context.Background()); err != nil {
		return false, false
	}
	defer s.releaseWriter()
	tree, p, live := s.pinCurrent()
	if !live {
		return false, false
	}
	defer p.Unpin()
	if !tree.ReplicaStale() {
		return true, true
	}
	if err := tree.Resync(); err != nil {
		s.gpuFaults.Add(1)
		s.brk.Failure()
		return false, true
	}
	s.repairs.Add(1)
	return true, true
}
