package serve

import (
	"errors"
	"testing"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/fault"
	"hbtree/internal/platform"
	"hbtree/internal/workload"
)

// TestBackgroundRepairHealsStaleReplica: a synchronized update whose
// device sync faults is acknowledged with the tree marked
// replica-stale, and the background repair re-mirrors the replica
// without waiting for the next write.
//
// Script shape: the clone's construction mirror makes two H2D copies
// (upper + last pool) that must succeed, then the update's first
// per-node region copy faults, and the degraded full-mirror retry
// faults too — the exact sequence that leaves a published version
// stale. The script is then exhausted, so the repair's own re-mirror
// runs clean.
func TestBackgroundRepairHealsStaleReplica(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<12)
	in := fault.New(fault.Options{})
	attachInjector(srv, in)
	in.ScriptNext(fault.OpH2D, nil, nil, fault.ErrH2D, fault.ErrH2D)

	if _, err := srv.Update([]cpubtree.Op[uint64]{{Key: pairs[3].Key, Value: 99}}, core.Synchronized); err != nil {
		t.Fatalf("faulted sync not acknowledged: %v", err)
	}
	if srv.Metrics().GPUFaults == 0 {
		t.Fatal("scripted transfer fault not observed")
	}
	// The write is acked and visible even while the replica lags.
	if v, ok := srv.Lookup(pairs[3].Key); !ok || v != 99 {
		t.Fatalf("acked write invisible during staleness: (%d,%v)", v, ok)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Repairs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background repair never completed: %+v", srv.Metrics())
		}
		time.Sleep(time.Millisecond)
	}
	if srv.Tree().ReplicaStale() {
		t.Fatal("replica still stale after a completed repair")
	}
	// The healed replica serves the GPU path again.
	queries := []uint64{pairs[3].Key, pairs[7].Key}
	values, found, _, err := srv.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if !found[0] || values[0] != 99 || !found[1] || values[1] != pairs[7].Value {
		t.Fatalf("post-repair batch: %v %v", values, found)
	}
}

// TestRepairExhaustsAndHealsOnNextMirror: when the repair's own
// re-mirrors keep faulting, the bounded attempts run out and
// heal-on-next-mirror remains the fallback — the next clean write
// restores the replica.
func TestRepairExhaustsAndHealsOnNextMirror(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<12)
	in := fault.New(fault.Options{})
	attachInjector(srv, in)
	// Clone mirror clean, sync + degraded mirror fault, then every
	// repair attempt faults on its first H2D copy.
	in.ScriptNext(fault.OpH2D, nil, nil, fault.ErrH2D, fault.ErrH2D,
		fault.ErrH2D, fault.ErrH2D, fault.ErrH2D)

	if _, err := srv.Update([]cpubtree.Op[uint64]{{Key: pairs[5].Key, Value: 123}}, core.Synchronized); err != nil {
		t.Fatalf("faulted sync not acknowledged: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for in.ScriptLen(fault.OpH2D) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair attempts stalled with %d scripted faults left", in.ScriptLen(fault.OpH2D))
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Metrics().Repairs; got != 0 {
		t.Fatalf("exhausted repair reported %d successes", got)
	}
	if !srv.Tree().ReplicaStale() {
		t.Fatal("replica unexpectedly healed with every repair faulted")
	}
	// Heal-on-next-mirror: a clean write re-mirrors and clears the flag.
	if _, err := srv.Update([]cpubtree.Op[uint64]{{Key: pairs[6].Key, Value: 124}}, core.Synchronized); err != nil {
		t.Fatal(err)
	}
	if srv.Tree().ReplicaStale() {
		t.Fatal("clean write did not heal the replica")
	}
}

// TestDegradedAdmissionSheds: while the backend's breaker is open, the
// coalescer's effective admission window shrinks to DegradedPending and
// the excess is refused fast with ErrOverloaded — even though Shed is
// false — and the full window is restored on recovery.
func TestDegradedAdmissionSheds(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<10)
	co := NewCoalescer[uint64](srv, Options{
		MaxBatch: 64, Window: time.Hour, Shards: 1,
		MaxPending: 8, DegradedPending: 4,
	})
	defer co.Close()

	// Healthy: six requests sit in the forming batch, past the degraded
	// bound but inside MaxPending — all admitted.
	for i := 0; i < 6; i++ {
		co.Submit(pairs[i].Key)
	}
	if co.Shed() != 0 {
		t.Fatalf("healthy admission shed %d", co.Shed())
	}

	srv.Breaker().ForceOpen(true)
	if _, _, err := co.Lookup(pairs[6].Key); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("degraded submission past the shrunken window = %v, want ErrOverloaded", err)
	}
	if co.DegradedShed() != 1 || co.Shed() != 1 {
		t.Fatalf("degraded shed counters: degraded %d, shed %d", co.DegradedShed(), co.Shed())
	}

	// Recovery: the same submission is admitted again (7th of 8).
	srv.Breaker().ForceOpen(false)
	reply := co.Submit(pairs[6].Key)
	select {
	case res := <-reply:
		t.Fatalf("post-recovery submission failed immediately: %+v", res)
	default:
	}
	if co.DegradedShed() != 1 {
		t.Fatalf("recovery still shedding: %d", co.DegradedShed())
	}
}

// TestLoadBalancedFallbackUsesFlatCPUSearch: with the breaker forced
// open on a load-balanced server, batches are served by the same flat
// host-only batch search as every other server — correct results, no
// kernel launches, one bucket, and the fallback counters advancing.
func TestLoadBalancedFallbackUsesFlatCPUSearch(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<12, 42)
	tree, err := core.Build(pairs, core.Options{
		Variant: core.Implicit, BucketSize: 64,
		Machine: platform.M2(), LoadBalance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tree)
	defer srv.Close()
	srv.Breaker().ForceOpen(true)
	if !srv.Degraded() {
		t.Fatal("forced-open server not degraded")
	}

	queries := make([]uint64, 192)
	for i := range queries {
		queries[i] = pairs[(i*29)%len(pairs)].Key
	}
	queries[190] = pairs[0].Key + 1 // miss
	kBefore := srv.DeviceCounters().Kernels
	values, found, stats, err := srv.LookupBatch(queries)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.DeviceCounters().Kernels; got != kBefore {
		t.Fatalf("fallback launched %d kernels", got-kBefore)
	}
	for i, q := range queries {
		if i == 190 {
			continue
		}
		if !found[i] || values[i] != workload.ValueFor(q) {
			t.Fatalf("fallback[%d] = (%d,%v)", i, values[i], found[i])
		}
	}
	if stats.SimTime <= 0 || stats.Buckets != 1 {
		t.Fatalf("fallback is not the flat CPU batch: %+v", stats)
	}
	m := srv.Metrics()
	if m.FallbackBatches != 1 || m.FallbackQueries != int64(len(queries)) {
		t.Fatalf("fallback counters: %+v", m)
	}
}
