package serve

import (
	"fmt"
	"testing"

	"hbtree/internal/breaker"
	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/epoch"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// sole returns the only member of a one-shard server: the tests below
// reach the writer slot and breaker through it.
func (s *Server[K]) sole() *member[K] {
	subs := s.members()
	if len(subs) != 1 {
		panic(fmt.Sprintf("sole member of a %d-shard server", len(subs)))
	}
	return subs[0]
}

// tree returns a one-shard server's current tree version, bypassing
// the reader/writer contract.
func (s *Server[K]) tree() *core.Tree[K] {
	s.sole()
	return s.reg.Current(0)
}

// acquire pins the registry as a reader would and returns a one-shard
// server's tree in the pinned state; release the pin with Unpin.
func (s *Server[K]) acquire() (*core.Tree[K], epoch.Pin[*core.Tree[K], shardMeta[K]]) {
	s.sole()
	p := s.reg.Pin()
	return p.Get(0), p
}

// setResilience replaces every member's breaker and retry policy. Call
// it before serving traffic.
func (s *Server[K]) setResilience(b breaker.Options, r retryOptions) {
	r.fill()
	for _, m := range s.members() {
		m.brk = breaker.New(b)
		m.retry = r
	}
}

// newTestServer builds an n-pair tree of the given variant and serves it
// on a one-shard server that the test's cleanup closes.
func newTestServer(t testing.TB, variant core.Variant, n int) (*Server[uint64], []keys.Pair[uint64]) {
	t.Helper()
	pairs := workload.Dataset[uint64](workload.Uniform, n, 42)
	tree, err := core.Build(pairs, core.Options{Variant: variant, BucketSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(tree)
	t.Cleanup(srv.Close)
	return srv, pairs
}

// TestServerReadPaths verifies every read operation through the lock.
func TestServerReadPaths(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<12)

	if v, ok := srv.Lookup(pairs[7].Key); !ok || v != pairs[7].Value {
		t.Fatalf("Lookup = (%d, %v)", v, ok)
	}
	qs := []uint64{pairs[0].Key, pairs[100].Key, pairs[200].Key}
	values, found, stats, err := srv.LookupBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		if !found[i] || values[i] != workload.ValueFor(q) {
			t.Fatalf("batch[%d] = (%d, %v)", i, values[i], found[i])
		}
	}
	if stats.Queries != len(qs) {
		t.Fatalf("stats.Queries = %d", stats.Queries)
	}

	rq := srv.RangeQuery(pairs[10].Key, 5)
	if len(rq) != 5 || rq[0].Key != pairs[10].Key {
		t.Fatalf("RangeQuery = %v", rq)
	}
	sc := srv.Scan(pairs[10].Key, 5)
	if len(sc) != 5 || sc[0] != rq[0] || sc[4] != rq[4] {
		t.Fatalf("Scan disagrees with RangeQuery: %v vs %v", sc, rq)
	}

	if srv.NumPairs() != len(pairs) {
		t.Fatalf("NumPairs = %d", srv.NumPairs())
	}
	if srv.Stats().NumPairs != len(pairs) {
		t.Fatalf("Stats.NumPairs = %d", srv.Stats().NumPairs)
	}
	if srv.Describe() == "" {
		t.Fatal("empty Describe")
	}
	if srv.DeviceCounters().BytesH2D == 0 {
		t.Fatal("no H2D traffic recorded after build+batch")
	}
}

// TestServerWritePath drives Update through the writer lock and checks
// visibility plus replica consistency.
func TestServerWritePath(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<12)

	ops := []cpubtree.Op[uint64]{
		{Key: pairs[3].Key, Value: 999},
		{Key: pairs[4].Key, Delete: true},
	}
	stats, err := srv.Update(ops, core.Synchronized)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 2 {
		t.Fatalf("Applied = %d", stats.Applied)
	}
	if v, ok := srv.Lookup(pairs[3].Key); !ok || v != 999 {
		t.Fatalf("updated key = (%d, %v)", v, ok)
	}
	if _, ok := srv.Lookup(pairs[4].Key); ok {
		t.Fatal("deleted key still found")
	}
	if err := srv.tree().VerifyReplica(); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.Updates != int64(len(ops)) || m.Lookups == 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestVirtualTimeAccounting: per-request lookups charge the serial
// descent, batches charge their makespan, and a batch is far cheaper
// per query than the same queries served individually.
func TestVirtualTimeAccounting(t *testing.T) {
	// Default options: the paper's 16K bucket, so the batch below is a
	// single bucket and pays the transfer/launch overheads once.
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<14, 42)
	tree, err := core.Build(pairs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tree.Close)
	srv := NewServer(tree)

	const q = 512
	queries := make([]uint64, q)
	for i := range queries {
		queries[i] = pairs[(i*37)%len(pairs)].Key
	}

	srv.ResetMetrics()
	for _, k := range queries {
		srv.Lookup(k)
	}
	perRequest := srv.Metrics().VirtualTime
	if want := float64(srv.PointLookupCost()) * q; float64(perRequest) < 0.99*want {
		t.Fatalf("per-request virtual time %v below %v", perRequest, want)
	}

	srv.ResetMetrics()
	if _, _, _, err := srv.LookupBatch(queries); err != nil {
		t.Fatal(err)
	}
	batched := srv.Metrics().VirtualTime
	if batched <= 0 {
		t.Fatal("batch charged no virtual time")
	}
	// The batch amortises transfer and launch overheads across the
	// bucket; serial per-request serving must cost more in total.
	if perRequest <= batched {
		t.Fatalf("expected batching to win: per-request %v vs batch %v", perRequest, batched)
	}
}
