package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/keys"
)

// Tests for LookupGroup: the blocking call a pipelining connection
// makes with every request it has in hand.

// groupKeys picks n stored keys spread over the whole key space, so a
// sharded server sees every shard, with an absent key at position 3.
func groupKeys(pairs []keys.Pair[uint64], n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = pairs[(i*131+7)%len(pairs)].Key
	}
	if n > 3 {
		ks[3] = 3 // uniform 64-bit keys: a tiny odd key is absent
	}
	return ks
}

// checkGroup verifies every answered member of a group against the
// stored pairs and returns how many members failed with wantErr; any
// other error fails the test.
func checkGroup(t *testing.T, pairs []keys.Pair[uint64], ks []uint64, out []Result[uint64], wantErr error) (failed int) {
	t.Helper()
	want := make(map[uint64]uint64, len(pairs))
	for _, p := range pairs {
		want[p.Key] = p.Value
	}
	for i, res := range out {
		if res.Err != nil {
			if wantErr == nil || !errors.Is(res.Err, wantErr) {
				t.Fatalf("member %d: err = %v, want %v", i, res.Err, wantErr)
			}
			failed++
			continue
		}
		v, ok := want[ks[i]]
		if res.Found != ok || (ok && res.Value != v) {
			t.Fatalf("member %d (key %d) = %+v, want (%d, %v)", i, ks[i], res, v, ok)
		}
	}
	return failed
}

// TestLookupGroupIsOneBatch: an idle coalescer answers a group as one
// batch of the group's size — batch size follows what the caller had in
// hand, not the window.
func TestLookupGroupIsOneBatch(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 64, Window: time.Hour})
	defer c.Close()

	ks := groupKeys(pairs, 16)
	out := make([]Result[uint64], len(ks))
	for round := 1; round <= 3; round++ {
		c.LookupGroup(context.Background(), ks, out)
		checkGroup(t, pairs, ks, out, nil)
		if c.Batches() != int64(round) || c.Queries() != int64(round*len(ks)) {
			t.Fatalf("round %d: batches=%d queries=%d, want one batch of %d per group", round, c.Batches(), c.Queries(), len(ks))
		}
	}
	if f := c.Flushes(); f != (FlushCounts{Idle: 3}) {
		t.Fatalf("flushes = %+v, want three idle flushes", f)
	}
}

// TestLookupGroupStraddlesBatches: a group larger than MaxBatch fills
// and flushes batches as it goes and still answers every member, over
// one shard and over four, from concurrent callers.
func TestLookupGroupStraddlesBatches(t *testing.T) {
	for _, be := range []struct {
		name   string
		shards int
	}{{"single", 1}, {"sharded", 4}} {
		t.Run(be.name, func(t *testing.T) {
			srv, pairs := newShardedServer(t, core.Regular, 1<<12, be.shards)
			co := srv.Coalesce(Options{MaxBatch: 8, Window: time.Hour})
			defer co.Close()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for round := 0; round < 20; round++ {
						ks := groupKeys(pairs[w:], 1+(round*7+w)%40)
						out := make([]Result[uint64], len(ks))
						co.LookupGroup(context.Background(), ks, out)
						for i, res := range out {
							if res.Err != nil {
								t.Errorf("caller %d round %d member %d: %v", w, round, i, res.Err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			ks := groupKeys(pairs, 37)
			out := make([]Result[uint64], len(ks))
			co.LookupGroup(context.Background(), ks, out)
			checkGroup(t, pairs, ks, out, nil)
			if f := co.Flushes(); f.Deadline != 0 {
				t.Fatalf("flushes = %+v: a blocking caller waited out the hour-long window", f)
			}
		})
	}
}

// TestLookupGroupAdmission is the admission table for groups: a group
// of 32 against a window of 1 or 8. Shed admission answers exactly the
// members that fit and refuses the rest, each on its own; blocking
// admission completes every member — with an hour-long window, so only
// the caller flushing what it queued before it waits for a token can
// have made room.
func TestLookupGroupAdmission(t *testing.T) {
	const groupSize = 32
	for _, maxPending := range []int{1, 8} {
		for _, mode := range []string{"shed", "blocking"} {
			opt := Options{MaxBatch: 64, Window: time.Hour, MaxPending: maxPending, Shed: mode == "shed"}
			t.Run(fmt.Sprintf("%s-%d", mode, maxPending), func(t *testing.T) {
				srv, pairs := newTestServer(t, core.Implicit, 1<<10)
				c := NewCoalescer(srv, opt)
				defer c.Close()
				ks := groupKeys(pairs, groupSize)
				out := make([]Result[uint64], groupSize)

				done := make(chan struct{})
				go func() {
					defer close(done)
					c.LookupGroup(context.Background(), ks, out)
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("group did not complete: a caller is waiting on the window timer or on its own tokens")
				}

				if mode == "blocking" {
					checkGroup(t, pairs, ks, out, nil)
					if c.Shed() != 0 {
						t.Fatalf("blocking admission shed %d requests", c.Shed())
					}
				} else {
					// Nothing is delivered while the group is being
					// admitted, so exactly the first maxPending fit.
					shed := checkGroup(t, pairs, ks, out, ErrOverloaded)
					if shed != groupSize-maxPending || c.Shed() != int64(shed) {
						t.Fatalf("%d members shed, Shed() = %d, want %d", shed, c.Shed(), groupSize-maxPending)
					}
					for i := 0; i < maxPending; i++ {
						if out[i].Err != nil {
							t.Fatalf("member %d inside the window was refused: %v", i, out[i].Err)
						}
					}
				}
				if f := c.Flushes(); f.Deadline != 0 {
					t.Fatalf("flushes = %+v: the window timer fired", f)
				}
				if len(c.slots) != 0 {
					t.Fatalf("%d admission tokens still held after the group returned", len(c.slots))
				}
			})
		}
	}
}

// TestLookupGroupAdmissionSharded: MaxPending is one budget per
// coalescer however many shards its backend has. A group of 32 whose
// keys cross all four shards against a window of 2 is admitted exactly
// as on one shard — the first 2 members answered, the other 30 refused
// with ErrOverloaded, Shed() matching — and blocking admission completes
// everything without the window timer.
func TestLookupGroupAdmissionSharded(t *testing.T) {
	for _, shed := range []bool{true, false} {
		t.Run(fmt.Sprintf("shed=%v", shed), func(t *testing.T) {
			s, pairs := newShardedServer(t, core.Implicit, 1<<10, 4)
			co := s.Coalesce(Options{MaxBatch: 64, Window: time.Hour, MaxPending: 2, Shed: shed})
			defer co.Close()
			ks := groupKeys(pairs, 32)
			out := make([]Result[uint64], len(ks))
			done := make(chan struct{})
			go func() {
				defer close(done)
				co.LookupGroup(context.Background(), ks, out)
			}()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("sharded group did not complete")
			}
			if shed {
				if n := checkGroup(t, pairs, ks, out, ErrOverloaded); n != 30 || co.Shed() != 30 {
					t.Fatalf("%d members shed, Shed() = %d, want 30: the window of 2 is per coalescer, not per shard", n, co.Shed())
				}
				if out[0].Err != nil || out[1].Err != nil {
					t.Fatalf("members inside the window were refused: %v, %v", out[0].Err, out[1].Err)
				}
			} else {
				checkGroup(t, pairs, ks, out, nil)
			}
			if f := co.Flushes(); f.Deadline != 0 {
				t.Fatalf("flushes = %+v: the window timer fired", f)
			}
		})
	}
}

// TestCloseFailsParkedGroup: Close during a parked group fails every
// member with ErrClosed and returns every admission token.
func TestCloseFailsParkedGroup(t *testing.T) {
	c, be, pairs, first := busyCoalescer(t, Options{MaxBatch: 64, Window: time.Hour, MaxPending: 64})

	ks := groupKeys(pairs, 32)
	out := make([]Result[uint64], len(ks))
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.LookupGroup(context.Background(), ks, out)
	}()
	waitFor(t, "the group to park", func() bool { return len(c.slots) == 1+len(ks) })
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		c.Close()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parked group hung across Close")
	}
	if n := checkGroup(t, pairs, ks, out, ErrClosed); n != len(ks) {
		t.Fatalf("%d of %d members failed with ErrClosed", n, len(ks))
	}
	// The flush that was running completes normally once the gate opens.
	be.gate.Unlock()
	wantValue(t, "first lookup", <-first, pairs[4].Value)
	<-closed
	if len(c.slots) != 0 {
		t.Fatalf("%d admission tokens still held after Close", len(c.slots))
	}
}

// TestLookupGroupDeadline: one budget covers the whole group's park;
// when it expires every queued member answers ErrDeadlineExceeded and
// is counted.
func TestLookupGroupDeadline(t *testing.T) {
	c, be, pairs, first := busyCoalescer(t, Options{MaxBatch: 64, Window: time.Hour})
	defer func() {
		be.gate.Unlock()
		<-first
	}()
	ks := groupKeys(pairs, 8)
	out := make([]Result[uint64], len(ks))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c.LookupGroup(ctx, ks, out)
	if n := checkGroup(t, pairs, ks, out, ErrDeadlineExceeded); n != len(ks) {
		t.Fatalf("%d of %d members failed with ErrDeadlineExceeded", n, len(ks))
	}
	if c.Deadlines() != int64(len(ks)) {
		t.Fatalf("Deadlines = %d, want %d", c.Deadlines(), len(ks))
	}
}

// TestLookupGroupAllocFree pins zero allocations per group in steady
// state — pooled reply cell, one queue append, inline flush, one
// copy-out — over one shard and over four, with and without an
// admission window, and with a live context that does not expire.
func TestLookupGroupAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	for _, cfg := range []struct {
		name   string
		opt    Options
		shards int
		ctx    context.Context
	}{
		{"single", Options{MaxBatch: 64, Shards: 1}, 1, context.Background()},
		{"single-bounded", Options{MaxBatch: 64, Shards: 1, MaxPending: 64}, 1, context.Background()},
		{"single-deadline", Options{MaxBatch: 64, Shards: 1}, 1, ctx},
		{"sharded", Options{MaxBatch: 64, Shards: 1}, 4, context.Background()},
		{"sharded-bounded", Options{MaxBatch: 64, Shards: 1, MaxPending: 64}, 4, ctx},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			s, pairs := newShardedServer(t, core.Implicit, 1<<10, cfg.shards)
			co := s.Coalesce(cfg.opt)
			defer co.Close()
			ks := groupKeys(pairs, 16)
			out := make([]Result[uint64], len(ks))
			for i := 0; i < 32; i++ { // warm the cell, batch and scratch pools
				co.LookupGroup(cfg.ctx, ks, out)
			}
			allocs := testing.AllocsPerRun(100, func() {
				co.LookupGroup(cfg.ctx, ks, out)
			})
			if allocs != 0 {
				t.Fatalf("LookupGroup allocates %.1f times per group, want 0", allocs)
			}
			checkGroup(t, pairs, ks, out, nil)
		})
	}
}
