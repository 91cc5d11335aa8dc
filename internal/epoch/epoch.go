// Package epoch is the generation-stamped snapshot registry behind the
// serving layer: one monotonic epoch counter over a refcounted *vector*
// of payload snapshots plus a routing-metadata value that travels with
// the vector. The serving layer's Server — one key-space shard per
// slot — publishes through a Registry, which is what makes two
// previously separate ideas expressible with one mechanism:
//
//   - Per-slot publication (Publish): a batch update swaps one shard's
//     tree; unaffected slots are shared with the predecessor state by
//     reference, so the swap costs O(T) pointer copies, not O(data).
//   - Whole-vector transition (Transition): a rebalance installs a new
//     split-key table and a new set of shard trees as ONE atomic epoch
//     step; a reader pinning before the step sees the complete old
//     world, a reader pinning after sees the complete new one, and no
//     reader ever observes a torn mixture of the two.
//
// Readers pin the registry's current state with a single atomic
// reference (RCU-style acquire/recheck/retry): the pin covers the whole
// vector, so an atomic cross-shard cut costs exactly what a single-slot
// read does. Payload lifetime is per-snapshot: a snapshot is released
// (its release hook runs, closing the tree and freeing its device
// replica) when the last *state* referencing it has drained, so a slot
// carried unchanged across many epochs is only released once the final
// epoch that holds it retires.
package epoch

import (
	"sync"
	"sync/atomic"
)

// snap wraps one payload slot. states counts how many registry states
// reference it — slots shared across epochs by Publish carry the same
// snap. The release hook runs exactly once, when the last referencing
// state drains.
type snap[T any] struct {
	val     T
	states  atomic.Int32
	release func(T)
	once    sync.Once
}

func (sn *snap[T]) unref() {
	if sn.states.Add(-1) == 0 {
		sn.once.Do(func() {
			if sn.release != nil {
				sn.release(sn.val)
			}
		})
	}
}

// state is one published generation: an epoch stamp, the snapshot
// vector, and the metadata value (e.g. a split-key table) that must be
// observed atomically with it. refs starts at 1 (the registry's
// publication reference); every pin adds one. The publication reference
// is dropped only after retired is set, so a drainer observing zero
// always observes retired too — the invariant the release path leans
// on. A racing Pin can still push refs through zero transiently (add,
// recheck, drop), so the drain itself is once-guarded.
type state[T, M any] struct {
	epoch   uint64
	snaps   []*snap[T]
	meta    M
	refs    atomic.Int64
	retired atomic.Bool
	once    sync.Once
}

func (st *state[T, M]) unref() {
	if st.refs.Add(-1) == 0 && st.retired.Load() {
		st.once.Do(func() {
			for _, sn := range st.snaps {
				sn.unref()
			}
		})
	}
}

// Registry is the generation-stamped snapshot registry. Readers Pin the
// current state without blocking; writers Publish one slot or
// Transition the whole vector under the registry's publisher mutex.
// The zero value is not usable; construct with New.
type Registry[T, M any] struct {
	cur     atomic.Pointer[state[T, M]]
	mu      sync.Mutex // serialises Publish/Transition/Close
	release func(T)
	closed  bool
}

// New creates a registry over the initial snapshot vector and metadata,
// at epoch 1. release, if non-nil, runs once per payload when its last
// referencing state drains (for serve: *core.Tree.Close, freeing the
// device replica).
func New[T, M any](vals []T, meta M, release func(T)) *Registry[T, M] {
	r := &Registry[T, M]{release: release}
	st := &state[T, M]{epoch: 1, snaps: make([]*snap[T], len(vals)), meta: meta}
	for i, v := range vals {
		sn := &snap[T]{val: v, release: release}
		sn.states.Store(1)
		st.snaps[i] = sn
	}
	st.refs.Store(1)
	r.cur.Store(st)
	return r
}

// Pin takes a reference on the current state — the whole snapshot
// vector plus its metadata, as one atomic cut — and returns it. The
// acquire/recheck loop guarantees the returned state was the published
// one at some instant at or after the call began. The caller must
// Unpin exactly once; the pin is a value (no allocation on the read
// path).
func (r *Registry[T, M]) Pin() Pin[T, M] {
	for {
		st := r.cur.Load()
		st.refs.Add(1)
		if r.cur.Load() == st {
			return Pin[T, M]{st: st}
		}
		// A publisher swapped between the load and the reference; drop
		// it and retry on the successor.
		st.unref()
	}
}

// Pin is a held reference to one state. The zero Pin is inert: Unpin on
// it is a no-op and Valid reports false — serve uses that as the
// locked-mode (no registry) marker.
type Pin[T, M any] struct {
	st *state[T, M]
}

// Valid reports whether the pin holds a state.
func (p Pin[T, M]) Valid() bool { return p.st != nil }

// Epoch returns the pinned state's generation stamp.
func (p Pin[T, M]) Epoch() uint64 { return p.st.epoch }

// Len returns the pinned vector's slot count.
func (p Pin[T, M]) Len() int { return len(p.st.snaps) }

// Get returns the payload in slot i of the pinned vector.
func (p Pin[T, M]) Get(i int) T { return p.st.snaps[i].val }

// Meta returns the metadata published with the pinned vector.
func (p Pin[T, M]) Meta() M { return p.st.meta }

// Unpin drops the reference. On the zero Pin it is a no-op.
func (p Pin[T, M]) Unpin() {
	if p.st != nil {
		p.st.unref()
	}
}

// Epoch returns the current generation stamp.
func (r *Registry[T, M]) Epoch() uint64 { return r.cur.Load().epoch }

// Len returns the current vector's slot count.
func (r *Registry[T, M]) Len() int { return len(r.cur.Load().snaps) }

// Current returns the payload in slot i of the current state without
// pinning it. Like Server.Tree, callers bypass the read contract: use
// only while no publisher runs.
func (r *Registry[T, M]) Current(i int) T { return r.cur.Load().snaps[i].val }

// Meta returns the current state's metadata without pinning it.
func (r *Registry[T, M]) Meta() M { return r.cur.Load().meta }

// Publish installs val in slot i as a new epoch, carrying every other
// slot and the metadata over from the predecessor by reference.
// In-flight pins of the predecessor finish on it undisturbed; the
// replaced payload is released when its last referencing state drains.
func (r *Registry[T, M]) Publish(i int, val T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	next := &state[T, M]{
		epoch: old.epoch + 1,
		snaps: make([]*snap[T], len(old.snaps)),
		meta:  old.meta,
	}
	for j, sn := range old.snaps {
		if j == i {
			fresh := &snap[T]{val: val, release: r.release}
			fresh.states.Store(1)
			next.snaps[j] = fresh
			continue
		}
		sn.states.Add(1)
		next.snaps[j] = sn
	}
	next.refs.Store(1)
	r.swap(old, next)
}

// Slot describes one slot of a Transition's successor vector: either a
// fresh payload or a slot kept (shared by reference) from the
// predecessor.
type Slot[T any] struct {
	keep int // predecessor slot index, or -1 for a fresh payload
	val  T
}

// NewSlot is a Transition slot holding a fresh payload.
func NewSlot[T any](val T) Slot[T] { return Slot[T]{keep: -1, val: val} }

// KeepSlot is a Transition slot carried over from predecessor slot i.
func KeepSlot[T any](i int) Slot[T] { return Slot[T]{keep: i} }

// Transition installs a whole successor vector and its metadata as one
// epoch step — the rebalance primitive. Kept slots share their snap
// with the predecessor (their payload is NOT released by the
// transition); predecessor slots not kept are released when the old
// state drains. The successor may have a different length than the
// predecessor — that is how shards split and merge.
func (r *Registry[T, M]) Transition(slots []Slot[T], meta M) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	next := &state[T, M]{
		epoch: old.epoch + 1,
		snaps: make([]*snap[T], len(slots)),
		meta:  meta,
	}
	for j, sl := range slots {
		if sl.keep >= 0 {
			sn := old.snaps[sl.keep]
			sn.states.Add(1)
			next.snaps[j] = sn
			continue
		}
		fresh := &snap[T]{val: sl.val, release: r.release}
		fresh.states.Store(1)
		next.snaps[j] = fresh
	}
	next.refs.Store(1)
	r.swap(old, next)
}

// SetMeta republishes the current vector unchanged under new metadata
// (a new epoch with every slot kept).
func (r *Registry[T, M]) SetMeta(meta M) {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.cur.Load()
	next := &state[T, M]{
		epoch: old.epoch + 1,
		snaps: make([]*snap[T], len(old.snaps)),
		meta:  meta,
	}
	for j, sn := range old.snaps {
		sn.states.Add(1)
		next.snaps[j] = sn
	}
	next.refs.Store(1)
	r.swap(old, next)
}

// swap publishes next and retires old. Callers hold r.mu.
func (r *Registry[T, M]) swap(old, next *state[T, M]) {
	r.cur.Store(next)
	old.retired.Store(true)
	old.unref()
}

// Close retires the current state: its payloads are released once every
// pin drains. Pins taken after Close race with the release and must not
// happen — the same "only while nothing else uses it" contract the
// serving layer's Close documents. Close is idempotent.
func (r *Registry[T, M]) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	cur := r.cur.Load()
	cur.retired.Store(true)
	cur.unref()
}
