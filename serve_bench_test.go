// Benchmarks (and an acceptance test) for the concurrent serving layer:
// per-request point lookups versus coalesced heterogeneous batches,
// compared on the paper's virtual clock.
//
// Per-request serving charges each GET the serial descent cost
// (Server.PointLookupCost); with C concurrent clients, up to
// min(C, CPU threads) descents overlap, so the virtual makespan is
// total/parallelism. Coalesced serving folds all clients' GETs into
// bucket-sized LookupBatch calls, which serialize on the (single) GPU
// pipeline but amortise transfer and launch overheads across the batch.
package hbtree_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hbtree"
	"hbtree/internal/serve"
)

const (
	serveBenchPairs = 1 << 18
	servePerClient  = 4096 // async submission depth per coalesced client
	serveBatch      = 0    // 0 = the tree's bucket size (16K default), the paper's operating point
	// The window is real (wall-clock) time: collecting a submission costs
	// ~100ns of channel traffic, so the window must be wide enough for
	// MaxBatch submissions to arrive or every flush is deadline-truncated.
	serveBenchWindow = 2 * time.Millisecond
)

// newServeBenchServer builds the shared fixture tree (default paper
// options: implicit variant, 16K buckets on machine M1).
func newServeBenchServer(tb testing.TB) (*hbtree.Server[uint64], []hbtree.Pair[uint64]) {
	tb.Helper()
	pairs := hbtree.GeneratePairs[uint64](serveBenchPairs, 42)
	tree, err := hbtree.New(pairs, hbtree.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	srv := hbtree.NewServer(tree)
	tb.Cleanup(srv.Close)
	return srv, pairs
}

// perRequestVMQPS serves clients×perClient point lookups through
// Server.Lookup from `clients` goroutines and returns the virtual
// throughput in million queries per second. Descents on distinct CPU
// threads overlap, so the makespan divides by min(clients, threads).
func perRequestVMQPS(tb testing.TB, srv *hbtree.Server[uint64], pairs []hbtree.Pair[uint64], clients, perClient int) float64 {
	tb.Helper()
	srv.ResetMetrics()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				k := pairs[(c*perClient+i*31)%len(pairs)].Key
				if _, ok := srv.Lookup(k); !ok {
					tb.Errorf("lookup miss for key %d", k)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	parallel := clients
	if threads := srv.Options().Threads; parallel > threads {
		parallel = threads
	}
	makespan := srv.Metrics().VirtualTime.Seconds() / float64(parallel)
	return float64(clients*perClient) / makespan / 1e6
}

// coalescedVMQPS serves the same load through a Coalescer: each client
// pipelines its lookups as async Submits (a real pipelined client keeps
// many requests in flight) and drains the replies. The coalesced
// batches run the heterogeneous 4-step pipeline back to back, so the
// makespan is the accumulated batch virtual time.
func coalescedVMQPS(tb testing.TB, srv *hbtree.Server[uint64], pairs []hbtree.Pair[uint64], clients, perClient int) float64 {
	tb.Helper()
	srv.ResetMetrics()
	// Shards is pinned to 1: the virtual-clock comparison measures the
	// batching discipline itself, so batch formation is kept
	// deterministic (one queue, bucket-sized flushes).
	co := srv.Coalesce(hbtree.CoalescerOptions{MaxBatch: serveBatch, Window: serveBenchWindow, Shards: 1})
	defer co.Close()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			replies := make([]<-chan serve.Result[uint64], perClient)
			for i := range replies {
				k := pairs[(c*perClient+i*31)%len(pairs)].Key
				replies[i] = co.Submit(k)
			}
			for i, ch := range replies {
				res := <-ch
				if res.Err != nil || !res.Found {
					tb.Errorf("coalesced request %d: found=%v err=%v", i, res.Found, res.Err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	makespan := srv.Metrics().VirtualTime.Seconds()
	return float64(clients*perClient) / makespan / 1e6
}

// TestCoalescedBeatsPerRequestAt4Clients is the serving layer's
// acceptance criterion: with ≥4 concurrent clients, coalesced batch
// serving must out-throughput per-request descents on the virtual
// clock.
func TestCoalescedBeatsPerRequestAt4Clients(t *testing.T) {
	srv, pairs := newServeBenchServer(t)
	perClient := servePerClient
	if testing.Short() {
		perClient /= 4
	}
	per := perRequestVMQPS(t, srv, pairs, 4, perClient)
	coal := coalescedVMQPS(t, srv, pairs, 4, perClient)
	t.Logf("4 clients: per-request %.1f vMQPS, coalesced %.1f vMQPS (%.1fx)", per, coal, coal/per)
	if coal <= per {
		t.Fatalf("coalesced serving (%.1f vMQPS) did not beat per-request (%.1f vMQPS) at 4 clients", coal, per)
	}
}

// BenchmarkServeThroughput reports the virtual serving throughput of
// both paths at 1, 4 and 16 concurrent clients.
func BenchmarkServeThroughput(b *testing.B) {
	srv, pairs := newServeBenchServer(b)
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("per-request/clients=%d", clients), func(b *testing.B) {
			var mqps float64
			for i := 0; i < b.N; i++ {
				mqps = perRequestVMQPS(b, srv, pairs, clients, servePerClient)
			}
			b.ReportMetric(mqps, "vMQPS")
		})
		b.Run(fmt.Sprintf("coalesced/clients=%d", clients), func(b *testing.B) {
			var mqps float64
			for i := 0; i < b.N; i++ {
				mqps = coalescedVMQPS(b, srv, pairs, clients, servePerClient)
			}
			b.ReportMetric(mqps, "vMQPS")
		})
	}
}
