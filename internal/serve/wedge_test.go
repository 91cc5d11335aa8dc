package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// Deterministic pins of what the serving layer promises about readers
// and writers sharing a server. Each test holds a writer slot the way a
// stalled writer would (TestUpdateCtxDeadlineOnBusyWriter's wedge) and
// asserts an ordering or a count; the only clock is a liveness watchdog.

// finishes runs fn on its own goroutine and fails the test if it has
// not returned within five seconds or returned an error.
func finishes(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not finish: parked behind a held writer slot", what)
	}
}

// wedge takes every member's writer slot and returns the (idempotent)
// release.
func wedge(subs []*member[uint64]) (release func()) {
	for _, s := range subs {
		s.wsem <- struct{}{}
	}
	return sync.OnceFunc(func() {
		for _, s := range subs {
			<-s.wsem
		}
	})
}

// overwrite returns one op per key of ks, setting it to its built value
// plus delta.
func overwrite(ks []uint64, delta uint64) []cpubtree.Op[uint64] {
	ops := make([]cpubtree.Op[uint64], len(ks))
	for i, k := range ks {
		ops[i] = cpubtree.Op[uint64]{Key: k, Value: workload.ValueFor(k) + delta}
	}
	return ops
}

// TestReadsDoNotWaitForWriter: with the writer slot of every member of
// a server held and a second writer parked behind it, point lookups,
// the flush-path batch lookup and a coalesced group all answer, from
// the published version, while the slots are still held.
func TestReadsDoNotWaitForWriter(t *testing.T) {
	check := func(t *testing.T, pairs []keys.Pair[uint64], srv *Server[uint64], co *Coalescer[uint64]) {
		// Stored keys spread over every shard, ascending (pairs are
		// sorted): the flush path's contract.
		ks := make([]uint64, 32)
		for i := range ks {
			ks[i] = pairs[i*len(pairs)/len(ks)].Key
		}
		if _, err := srv.Update(overwrite(ks, 1), core.Synchronized); err != nil {
			t.Fatal(err)
		}
		verify := func(path string, delta uint64, k, v uint64, ok bool) error {
			if want := workload.ValueFor(k) + delta; !ok || v != want {
				return fmt.Errorf("%s(%d) = (%d, %v), want (%d, true)", path, k, v, ok, want)
			}
			return nil
		}

		subs := srv.members()
		release := wedge(subs)
		defer release()
		parked := make(chan error, 1)
		go func() {
			_, err := srv.Update(overwrite(ks, 2), core.Synchronized)
			parked <- err
		}()

		finishes(t, "reads", func() error {
			for _, k := range ks {
				v, ok := srv.Lookup(k)
				if err := verify("Lookup", 1, k, v, ok); err != nil {
					return err
				}
			}
			vals, found := make([]uint64, len(ks)), make([]bool, len(ks))
			if _, err := srv.LookupBatchSortedInto(ks, vals, found); err != nil {
				return err
			}
			out := make([]Result[uint64], len(ks))
			co.LookupGroup(context.Background(), ks, out)
			for i, k := range ks {
				if err := verify("LookupBatchSortedInto", 1, k, vals[i], found[i]); err != nil {
					return err
				}
				if out[i].Err != nil {
					return out[i].Err
				}
				if err := verify("LookupGroup", 1, k, out[i].Value, out[i].Found); err != nil {
					return err
				}
			}
			return nil
		})
		for i, s := range subs {
			if len(s.wsem) != 1 {
				t.Fatalf("member %d's writer slot was released under the test", i)
			}
		}
		select {
		case err := <-parked:
			t.Fatalf("the second writer got past a held slot (err %v)", err)
		default:
		}

		release()
		finishes(t, "the parked writer after release", func() error { return <-parked })
		for _, k := range ks {
			v, ok := srv.Lookup(k)
			if err := verify("Lookup after release", 2, k, v, ok); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("single", func(t *testing.T) {
		srv, pairs := newTestServer(t, core.Regular, 1<<12)
		co := NewCoalescer[uint64](srv, Options{MaxBatch: 64})
		defer co.Close()
		check(t, pairs, srv, co)
	})
	t.Run("sharded", func(t *testing.T) {
		sh, pairs := newShardedServer(t, core.Regular, 1<<12, 4)
		co := sh.Coalesce(Options{MaxBatch: 64})
		defer co.Close()
		check(t, pairs, sh, co)
	})
}

// TestShardPumpsIndependent: a write parked on shard 0 does not hold up
// writes to shards 1–3. Shard 0's job is handed straight to its pump
// (the channel is unbuffered, so the send returns once the pump owns
// it) — were every shard's job to travel through one pump, the later
// ones would queue behind it and never be acknowledged.
func TestShardPumpsIndependent(t *testing.T) {
	sh, pairs := newShardedServer(t, core.Regular, 1<<12, 4)
	subs := sh.members()
	key := make([]uint64, len(subs)) // one stored key per shard
	for i := range key {
		key[i] = pairs[slices.IndexFunc(pairs, func(p keys.Pair[uint64]) bool { return sh.route(p.Key) == i })].Key
	}
	op := func(i int) []cpubtree.Op[uint64] { return overwrite(key[i:i+1], 1) }
	landed := func(i int) bool {
		v, ok := sh.Lookup(key[i])
		return ok && v == workload.ValueFor(key[i])+1
	}

	release := wedge(subs[:1])
	defer release()
	done0 := make(chan shardDone, 1)
	sh.pumps[0] <- shardJob[uint64]{ctx: context.Background(), sub: subs[0], ops: op(0), method: core.Synchronized, done: done0}

	for i := 1; i < len(subs); i++ {
		finishes(t, fmt.Sprintf("shard %d's update", i), func() error {
			_, err := sh.Update(op(i), core.Synchronized)
			return err
		})
		if !landed(i) {
			t.Fatalf("shard %d acknowledged a write it does not serve", i)
		}
	}
	select {
	case d := <-done0:
		t.Fatalf("shard 0's write got past its held slot: %+v", d)
	default:
	}
	if landed(0) {
		t.Fatal("shard 0 serves a write that is still parked")
	}

	release()
	finishes(t, "shard 0's update after release", func() error { return (<-done0).err })
	if !landed(0) {
		t.Fatal("shard 0's write did not land after release")
	}
}

// TestShardedWriteClonesOneShard: on full leaves every batch takes the
// clone path, and the same one-key batch copies the whole tree's
// per-leaf state (leaf records, node metadata, page tables) on a
// one-shard server but only the owning shard's on a 4-shard one. The
// clone also copies each tree's upper pool whole, a fixed cost per
// shard: at 2^14 pairs each shard's upper pool is one root node, as
// large as the per-leaf state of a dozen leaves, so only the per-leaf
// state shows the one-third ratio there; at 2^16 pairs the total does.
func TestShardedWriteClonesOneShard(t *testing.T) {
	for _, c := range []struct {
		n     int
		total bool // whether the total, upper pools included, is a third
	}{{1 << 14, false}, {1 << 16, true}} {
		t.Run(fmt.Sprintf("n=%d", c.n), func(t *testing.T) {
			pairs := workload.Dataset[uint64](workload.Uniform, c.n, 42)
			opt := core.Options{Variant: core.Regular, LeafFill: 1, BucketSize: 64}
			tree, err := core.Build(pairs, opt)
			if err != nil {
				t.Fatal(err)
			}
			_, _, _, _, nodeSlots, _ := tree.Regular().InnerArrays()
			nodeBytes := int64(nodeSlots) * 8
			srv := NewServer(tree)
			defer srv.Close()
			sh, err := BuildSharded(pairs, opt, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer sh.Close()

			ops := []cpubtree.Op[uint64]{{Key: pairs[len(pairs)/2].Key + 1, Value: 9}}
			one, err := srv.Update(ops, core.Synchronized)
			if err != nil {
				t.Fatal(err)
			}
			quarter, err := sh.Update(ops, core.Synchronized)
			if err != nil {
				t.Fatal(err)
			}
			if one.InPlace || quarter.InPlace || quarter.ClonedBytes == 0 {
				t.Fatalf("full-leaf batches did not clone: single %+v, sharded %+v", one, quarter)
			}
			// Full leaves compact nothing, so every inner node a clone
			// copies is an upper-pool node.
			perLeaf := func(s core.UpdateStats) int64 { return s.ClonedBytes - int64(s.ClonedNodes)*nodeBytes }
			if q, o := perLeaf(quarter), perLeaf(one); q <= 0 || 3*q > o {
				t.Fatalf("sharded write cloned %d bytes of per-leaf state, single-tree %d: want at most a third", q, o)
			}
			if c.total && 3*quarter.ClonedBytes > one.ClonedBytes {
				t.Fatalf("sharded write cloned %d bytes, single-tree %d: want at most a third", quarter.ClonedBytes, one.ClonedBytes)
			}
			if m := sh.Metrics(); m.ClonedBytes != quarter.ClonedBytes || m.CloneFallbacks != 1 {
				t.Fatalf("sharded metrics = %+v, want the one batch's %d cloned bytes", m, quarter.ClonedBytes)
			}
		})
	}
}
