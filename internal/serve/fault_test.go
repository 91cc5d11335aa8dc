package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hbtree/internal/breaker"
	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/fault"
	"hbtree/internal/workload"
)

// attachInjector arms in on the server's device. The device is shared
// by every snapshot clone, so attaching once up front covers the whole
// test even across Update-driven swaps.
func attachInjector(s *Server[uint64], in *fault.Injector) {
	s.tree().Device().SetInjector(in)
}

// TestBreakerTransitionsUnderScriptedFaults walks the breaker through
// its full state machine with scripted kernel faults: three consecutive
// failures trip it open (each batch still answered correctly from the
// CPU fallback), open-state batches bypass the device entirely, and
// after OpenTimeout a successful half-open probe closes it again.
func TestBreakerTransitionsUnderScriptedFaults(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	const openTimeout = 25 * time.Millisecond
	srv.setResilience(breaker.Options{
		ConsecutiveTrip: 3,
		MinSamples:      1 << 20, // disable the rate trip; this test drives the consecutive path
		OpenTimeout:     openTimeout,
	}, retryOptions{MaxAttempts: 1})
	in := fault.New(fault.Options{})
	attachInjector(srv, in)

	qs := make([]uint64, 8)
	for i := range qs {
		qs[i] = pairs[i*29%len(pairs)].Key
	}
	check := func(stage string) {
		t.Helper()
		vals, found, _, err := srv.LookupBatch(qs)
		if err != nil {
			t.Fatalf("%s: LookupBatch: %v", stage, err)
		}
		for i, q := range qs {
			if !found[i] || vals[i] != workload.ValueFor(q) {
				t.Fatalf("%s: query %d = (%d,%v)", stage, i, vals[i], found[i])
			}
		}
	}

	// Closed -> Open: three scripted faults, each answered by fallback.
	in.ScriptNext(fault.OpKernel, fault.ErrKernel, fault.ErrKernel, fault.ErrKernel)
	for i := 0; i < 3; i++ {
		check("tripping")
	}
	m := srv.Metrics()
	if m.BreakerState != breaker.Open {
		t.Fatalf("state after 3 consecutive faults = %v", m.BreakerState)
	}
	if m.GPUFaults != 3 || m.FallbackBatches != 3 || m.BreakerTrips != 1 {
		t.Fatalf("metrics after trip = %+v", m)
	}

	// Open: the device is not consulted at all.
	kBefore := srv.DeviceCounters().Kernels
	check("open")
	if got := srv.DeviceCounters().Kernels; got != kBefore {
		t.Fatalf("open-state batch launched kernels (%d -> %d)", kBefore, got)
	}
	m = srv.Metrics()
	if m.GPUFaults != 3 || m.FallbackBatches != 4 {
		t.Fatalf("metrics while open = %+v", m)
	}
	if srv.sole().brk.Counters().Rejected == 0 {
		t.Fatal("open breaker rejected nothing")
	}

	// Open -> HalfOpen -> Closed: after the timeout one probe succeeds.
	time.Sleep(2 * openTimeout)
	check("probe")
	m = srv.Metrics()
	if m.BreakerState != breaker.Closed {
		t.Fatalf("state after successful probe = %v", m.BreakerState)
	}
	if c := srv.sole().brk.Counters(); c.Probes == 0 || c.Closes != 1 {
		t.Fatalf("breaker counters after recovery = %+v", c)
	}
	if m.FallbackBatches != 4 {
		t.Fatalf("probe batch fell back: %+v", m)
	}
}

// TestDeadlineExceededParkedCoalescedGET: a GET parked behind a flush
// that does not finish, in a coalescing window that will not fire for an
// hour, must fail with ErrDeadlineExceeded when its context expires —
// within twice the deadline, not at the window.
func TestDeadlineExceededParkedCoalescedGET(t *testing.T) {
	c, be, pairs, first := busyCoalescer(t, Options{MaxBatch: 64, Window: time.Hour})
	// The abandoned request still sits in the forming batch; the
	// handoff when the gate opens, or Close, must deliver into its
	// abandoned cell without blocking.
	defer func() {
		be.gate.Unlock()
		<-first
	}()

	const deadline = 250 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, _, err := c.LookupCtx(ctx, pairs[0].Key)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("parked GET error = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("parked GET failed after %v, deadline was %v", elapsed, deadline)
	}
	if c.Deadlines() != 1 {
		t.Fatalf("coalescer Deadlines = %d, want 1", c.Deadlines())
	}
}

// TestUpdateCtxDeadlineOnBusyWriter: an update abandoned while waiting
// for the writer slot fails with ErrDeadlineExceeded instead of parking
// forever, and the slot's owner is unaffected.
func TestUpdateCtxDeadlineOnBusyWriter(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<10)
	srv.sole().wsem <- struct{}{} // wedge the writer slot, as a stalled writer would

	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	_, err := srv.UpdateCtx(ctx, []cpubtree.Op[uint64]{{Key: pairs[0].Key, Value: 1}}, core.Synchronized)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("UpdateCtx on busy writer = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("UpdateCtx failed after %v, deadline was %v", elapsed, deadline)
	}
	if srv.Metrics().Deadlines != 1 {
		t.Fatalf("Deadlines = %d, want 1", srv.Metrics().Deadlines)
	}

	<-srv.sole().wsem // release; the write path must be healthy again
	if _, err := srv.Update([]cpubtree.Op[uint64]{{Key: pairs[0].Key, Value: 2}}, core.Synchronized); err != nil {
		t.Fatalf("update after release: %v", err)
	}
	if v, ok := srv.Lookup(pairs[0].Key); !ok || v != 2 {
		t.Fatalf("post-release lookup = (%d,%v)", v, ok)
	}
}

// TestShardedUpdateCtxDeadlineOnStalledPump: with every shard's writer
// slot wedged, a sharded update expires with ErrDeadlineExceeded rather
// than parking the dispatcher; once released the pumps drain and the
// server keeps serving.
func TestShardedUpdateCtxDeadlineOnStalledPump(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<12, 42)
	tree, err := core.Build(pairs, core.Options{Variant: core.Regular, BucketSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShardedServer(tree, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()

	for _, sub := range sh.members() {
		sub.wsem <- struct{}{}
	}
	const deadline = 100 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	start := time.Now()
	_, err = sh.UpdateCtx(ctx, []cpubtree.Op[uint64]{{Key: pairs[0].Key, Value: 7}}, core.Synchronized)
	elapsed := time.Since(start)
	cancel()
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("sharded UpdateCtx = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed > 2*deadline {
		t.Fatalf("sharded UpdateCtx failed after %v, deadline was %v", elapsed, deadline)
	}
	// One expired request is one deadline, whichever wait (the member's
	// writer slot or the dispatcher's outcome wait) noticed it first.
	if got := sh.Metrics().Deadlines; got != 1 {
		t.Fatalf("sharded Deadlines = %d, want 1", got)
	}
	for _, sub := range sh.members() {
		<-sub.wsem
	}
	// The abandoned job may still complete in the background — that is
	// the documented at-most-once-visible semantics — but a fresh update
	// must succeed and be visible.
	if _, err := sh.Update([]cpubtree.Op[uint64]{{Key: pairs[1].Key, Value: 8}}, core.Synchronized); err != nil {
		t.Fatalf("update after release: %v", err)
	}
	if v, ok := sh.Lookup(pairs[1].Key); !ok || v != 8 {
		t.Fatalf("post-release lookup = (%d,%v)", v, ok)
	}
}

// TestFallbackOracleUnderFaultsAndSwaps is the -race oracle: concurrent
// readers under a 50% kernel fault rate — so batches constantly retry,
// trip the breaker and degrade to the CPU fallback — race a writer that
// flips values through snapshot swaps. Every read must err nil and
// observe either the old or the new value, never garbage, whichever
// path served it.
func TestFallbackOracleUnderFaultsAndSwaps(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<12)
	srv.setResilience(breaker.Options{OpenTimeout: 5 * time.Millisecond}, retryOptions{MaxAttempts: 2})
	attachInjector(srv, fault.New(fault.Options{Seed: 99, Kernel: 0.5}))

	const delta = uint64(1) << 40
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := pairs[(i*13)%len(pairs)].Key
			op := []cpubtree.Op[uint64]{{Key: k, Value: workload.ValueFor(k) + delta}}
			if _, err := srv.Update(op, core.Synchronized); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			qs := make([]uint64, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range qs {
					qs[j] = pairs[(r*31+i*7+j*17)%len(pairs)].Key
				}
				vals, found, _, err := srv.LookupBatch(qs)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				for j, q := range qs {
					base := workload.ValueFor(q)
					if !found[j] || (vals[j] != base && vals[j] != base+delta) {
						t.Errorf("reader %d: key %d = (%d,%v), want %d or %d",
							r, q, vals[j], found[j], base, base+delta)
						return
					}
				}
			}
		}(r)
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	m := srv.Metrics()
	if m.GPUFaults == 0 || m.FallbackBatches == 0 {
		t.Fatalf("fault path not exercised: %+v", m)
	}
}

// TestFallbackThroughputSmoke is the degraded-mode capacity floor: with
// the breaker forced open every batch is answered host-only, the device
// sees zero kernel launches, and throughput stays measurably above
// zero — the property the ops runbook in DESIGN §7 leans on.
func TestFallbackThroughputSmoke(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<12)
	srv.sole().brk.ForceOpen(true)
	kBefore := srv.DeviceCounters().Kernels

	qs := make([]uint64, 1024)
	for i := range qs {
		qs[i] = pairs[(i*37)%len(pairs)].Key
	}
	const rounds = 20
	start := time.Now()
	for i := 0; i < rounds; i++ {
		vals, found, _, err := srv.LookupBatch(qs)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if !found[0] || vals[0] != workload.ValueFor(qs[0]) {
			t.Fatalf("round %d: spot check = (%d,%v)", i, vals[0], found[0])
		}
	}
	elapsed := time.Since(start)

	if got := srv.DeviceCounters().Kernels; got != kBefore {
		t.Fatalf("forced-open serving launched kernels (%d -> %d)", kBefore, got)
	}
	m := srv.Metrics()
	if m.FallbackBatches != rounds || m.FallbackQueries != rounds*int64(len(qs)) {
		t.Fatalf("fallback accounting = %+v", m)
	}
	mqps := float64(rounds*len(qs)) / elapsed.Seconds() / 1e6
	if mqps <= 0 {
		t.Fatalf("fallback throughput = %f MQPS", mqps)
	}
	t.Logf("CPU-only fallback: %.2f MQPS over %d queries", mqps, rounds*len(qs))
}

// TestServeFaultAcceptance is the issue's acceptance scenario: a
// 100k-op mixed read/write workload against a 10% kernel fault rate
// plus a scripted device-reset burst. It must complete with zero
// hangs (the test finishing is the proof), zero lost acked writes,
// every read matching the single-threaded oracle, and the breaker
// tripping during the burst and recovering after it.
func TestServeFaultAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("acceptance workload skipped in -short mode")
	}
	srv, pairs := newTestServer(t, core.Regular, 1<<13)
	srv.setResilience(breaker.Options{OpenTimeout: 10 * time.Millisecond}, retryOptions{})
	in := fault.New(fault.Options{Seed: 42, Kernel: 0.10})
	attachInjector(srv, in)

	oracle := make(map[uint64]uint64, len(pairs))
	for _, p := range pairs {
		oracle[p.Key] = p.Value
	}
	acked := make(map[uint64]uint64)

	const (
		totalOps  = 100_000
		batchSize = 100 // queries per lookup batch
		writeOps  = 20  // ops per update batch
	)
	qs := make([]uint64, batchSize)
	ops := make([]cpubtree.Op[uint64], writeOps)
	done, action, seq := 0, 0, uint64(0)
	for done < totalOps {
		// Halfway in, script a sustained reset burst: every kernel
		// launch fails for the next 64 attempts, the outage that must
		// trip the breaker open.
		if done >= totalOps/2 && in.ScriptLen(fault.OpKernel) == 0 && srv.Metrics().BreakerTrips == 0 {
			burst := make([]error, 64)
			for i := range burst {
				burst[i] = fault.ErrReset
			}
			in.ScriptNext(fault.OpKernel, burst...)
		}
		if action%10 == 9 {
			for i := range ops {
				k := pairs[(done+i*7)%len(pairs)].Key
				seq++
				ops[i] = cpubtree.Op[uint64]{Key: k, Value: 1_000_000 + seq}
			}
			if _, err := srv.Update(ops, core.Synchronized); err != nil {
				t.Fatalf("op %d: update: %v", done, err)
			}
			// The server acked: from here on these writes must never be
			// lost, faults or not.
			for _, op := range ops {
				oracle[op.Key] = op.Value
				acked[op.Key] = op.Value
			}
			done += writeOps
		} else {
			for i := range qs {
				qs[i] = pairs[(done*3+i*11)%len(pairs)].Key
			}
			vals, found, _, err := srv.LookupBatch(qs)
			if err != nil {
				t.Fatalf("op %d: lookup batch: %v", done, err)
			}
			for i, q := range qs {
				if !found[i] || vals[i] != oracle[q] {
					t.Fatalf("op %d: key %d = (%d,%v), oracle %d", done, q, vals[i], found[i], oracle[q])
				}
			}
			done += batchSize
		}
		action++
	}

	m := srv.Metrics()
	if m.GPUFaults == 0 || m.Retries == 0 || m.FallbackBatches == 0 {
		t.Fatalf("fault machinery idle through the workload: %+v", m)
	}
	if m.BreakerTrips == 0 {
		t.Fatalf("reset burst never tripped the breaker: %+v", m)
	}

	// Recovery: drain any remaining scripted faults through half-open
	// probes until the breaker closes again.
	deadline := time.Now().Add(15 * time.Second)
	for srv.Metrics().BreakerState != breaker.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never recovered: %+v, script left %d", srv.Metrics(), in.ScriptLen(fault.OpKernel))
		}
		if _, _, _, err := srv.LookupBatch(qs[:8]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if srv.sole().brk.Counters().Closes == 0 {
		t.Fatal("breaker closed without a recorded recovery")
	}

	// Zero lost acked writes: every acked value is the one served.
	for k, v := range acked {
		if got, ok := srv.Lookup(k); !ok || got != v {
			t.Fatalf("acked write lost: key %d = (%d,%v), want %d", k, got, ok, v)
		}
	}
	t.Logf("acceptance: %+v, injector %+v", m, in.Counters())
}
