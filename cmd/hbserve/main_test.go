package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbtree"
	"hbtree/internal/core"
	"hbtree/internal/fault"
	"hbtree/internal/serve"
)

// newTestTree builds a small dataset tree for protocol tests.
func newTestTree(t *testing.T, variant hbtree.Variant, seed uint64) (*hbtree.Tree[uint64], []hbtree.Pair[uint64]) {
	t.Helper()
	pairs := hbtree.GeneratePairs[uint64](1<<12, seed)
	tree, err := hbtree.New(pairs, hbtree.Options{Variant: variant})
	if err != nil {
		t.Fatal(err)
	}
	return tree, pairs
}

// mustServer serves tree as cfg.shards shards (the zero config is one
// shard, the binary's default) behind newServer, or t.Fatal. The server
// owns the tree from here.
func mustServer(t testing.TB, tree *hbtree.Tree[uint64], cfg serveConfig) *server {
	t.Helper()
	srv, err := tree.Sharded(max(cfg.shards, 1))
	if err != nil {
		t.Fatal(err)
	}
	return newServer(srv, nil, cfg)
}

// startServer runs s.acceptLoop on an ephemeral listener and returns a
// dialer. The listener closes (and the loop exits) at test cleanup; the
// server itself is shut down there too.
func startServer(t *testing.T, s *server) func() (net.Conn, *bufio.Reader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.acceptLoop(ln)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-loopDone
		s.shutdown()
	})
	return func() (net.Conn, *bufio.Reader) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn, bufio.NewReader(conn)
	}
}

// replyWait bounds every reply read: a request that an admission or
// shutdown regression leaves parked fails the test in seconds instead of
// at the package timeout.
const replyWait = 5 * time.Second

func sendLine(t *testing.T, conn net.Conn, r *bufio.Reader, line string) string {
	t.Helper()
	if _, err := fmt.Fprintln(conn, line); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(replyWait))
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(resp)
}

// TestServeProtocol drives the TCP protocol end-to-end against an
// in-process listener.
func TestServeProtocol(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 42)
	s := mustServer(t, tree, serveConfig{})
	dial := startServer(t, s)
	conn, r := dial()
	send := func(line string) string { return sendLine(t, conn, r, line) }

	// GET of an existing key.
	want := fmt.Sprintf("VALUE %d", pairs[10].Value)
	if got := send(fmt.Sprintf("GET %d", pairs[10].Key)); got != want {
		t.Fatalf("GET = %q, want %q", got, want)
	}
	// GET of a missing key.
	if got := send("GET 1"); got != "NOTFOUND" && !strings.HasPrefix(got, "VALUE") {
		t.Fatalf("GET missing = %q", got)
	}
	// Malformed requests.
	if got := send("GET"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad GET = %q", got)
	}
	if got := send("GET abc"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("non-numeric GET = %q", got)
	}
	if got := send("FLY"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("unknown cmd = %q", got)
	}
	// PUT/DEL are rejected on the implicit variant.
	if got := send("PUT 1 2"); !strings.Contains(got, "regular variant") {
		t.Fatalf("PUT on implicit = %q", got)
	}
	if got := send("DEL 1"); !strings.Contains(got, "regular variant") {
		t.Fatalf("DEL on implicit = %q", got)
	}
	// RANGE returns count pairs then END.
	if _, err := fmt.Fprintf(conn, "RANGE %d 3\n", pairs[0].Key); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		wantLine := fmt.Sprintf("PAIR %d %d", pairs[i].Key, pairs[i].Value)
		if strings.TrimSpace(line) != wantLine {
			t.Fatalf("RANGE line %d = %q, want %q", i, strings.TrimSpace(line), wantLine)
		}
	}
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "END" {
		t.Fatalf("RANGE terminator = %q", line)
	}
	// STATS mentions the pair count and the serving metrics.
	got := send("STATS")
	if !strings.Contains(got, fmt.Sprintf("pairs=%d", len(pairs))) || !strings.Contains(got, "lookups=") {
		t.Fatalf("STATS = %q", got)
	}
	// QUIT closes the session.
	if got := send("QUIT"); got != "BYE" {
		t.Fatalf("QUIT = %q", got)
	}
}

// TestPutDelProtocol exercises the write path on the regular variant:
// inserts become visible, deletes report NOTFOUND for absent keys, and
// the sentinel key is rejected.
func TestPutDelProtocol(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Regular, 7)
	s := mustServer(t, tree, serveConfig{})
	dial := startServer(t, s)
	conn, r := dial()
	send := func(line string) string { return sendLine(t, conn, r, line) }

	// Overwrite an existing key and read it back.
	k := pairs[3].Key
	if got := send(fmt.Sprintf("PUT %d 999", k)); got != "OK" {
		t.Fatalf("PUT = %q", got)
	}
	if got := send(fmt.Sprintf("GET %d", k)); got != "VALUE 999" {
		t.Fatalf("GET after PUT = %q", got)
	}
	// Delete it; a second delete reports NOTFOUND.
	if got := send(fmt.Sprintf("DEL %d", k)); got != "OK" {
		t.Fatalf("DEL = %q", got)
	}
	if got := send(fmt.Sprintf("GET %d", k)); got != "NOTFOUND" {
		t.Fatalf("GET after DEL = %q", got)
	}
	if got := send(fmt.Sprintf("DEL %d", k)); got != "NOTFOUND" {
		t.Fatalf("second DEL = %q", got)
	}
	// Insert a brand-new key.
	if got := send("PUT 12345 678"); got != "OK" {
		t.Fatalf("PUT new = %q", got)
	}
	if got := send("GET 12345"); got != "VALUE 678" {
		t.Fatalf("GET new = %q", got)
	}
	// The sentinel (+infinity fence) key is rejected, not silently
	// dropped.
	if got := send(fmt.Sprintf("PUT %d 1", sentinelKey)); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("PUT sentinel = %q", got)
	}
	// Malformed writes.
	if got := send("PUT 1"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("short PUT = %q", got)
	}
	if got := send("DEL xyz"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad DEL = %q", got)
	}
}

// TestCoalescedConnections runs concurrent client connections through
// the coalesced GET path, each pipelining a few GETs per write, and
// checks every reply plus that coalescing actually batched the requests.
func TestCoalescedConnections(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 3)
	s := mustServer(t, tree, serveConfig{coalesce: true, window: 200 * time.Microsecond, maxBatch: 64})
	dial := startServer(t, s)

	const clients, rounds, depth = 4, 10, 5
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		conn, r := dial()
		wg.Add(1)
		go func(c int, conn net.Conn, r *bufio.Reader) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var req strings.Builder
				for d := 0; d < depth; d++ {
					fmt.Fprintf(&req, "GET %d\n", pairs[(c*rounds*depth+(i*depth+d)*13)%len(pairs)].Key)
				}
				if _, err := io.WriteString(conn, req.String()); err != nil {
					errc <- err
					return
				}
				for d := 0; d < depth; d++ {
					p := pairs[(c*rounds*depth+(i*depth+d)*13)%len(pairs)]
					resp, err := r.ReadString('\n')
					if err != nil {
						errc <- err
						return
					}
					if want := fmt.Sprintf("VALUE %d", p.Value); strings.TrimSpace(resp) != want {
						errc <- fmt.Errorf("client %d: GET = %q, want %q", c, resp, want)
						return
					}
				}
			}
		}(c, conn, r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	m := s.srv.Metrics()
	if m.BatchedQueries != clients*rounds*depth {
		t.Fatalf("batched queries = %d, want %d", m.BatchedQueries, clients*rounds*depth)
	}
	if m.Batches == 0 || m.Batches >= m.BatchedQueries {
		t.Fatalf("no coalescing happened: %d batches for %d queries", m.Batches, m.BatchedQueries)
	}
}

// scriptedListener feeds acceptLoop a fixed sequence of Accept results.
type scriptedListener struct {
	mu    sync.Mutex
	steps []func() (net.Conn, error)
}

func (l *scriptedListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.steps) == 0 {
		return nil, net.ErrClosed
	}
	step := l.steps[0]
	l.steps = l.steps[1:]
	return step()
}
func (l *scriptedListener) Close() error   { return nil }
func (l *scriptedListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

// TestAcceptLoopRetries: transient Accept errors must not kill the
// server (the pre-refactor behaviour); the loop backs off, retries, and
// still serves the connection that arrives afterwards. A closed
// listener ends the loop cleanly.
func TestAcceptLoopRetries(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 11)
	s := mustServer(t, tree, serveConfig{})
	defer s.shutdown()

	client, srvConn := net.Pipe()
	transient := errors.New("accept: too many open files")
	ln := &scriptedListener{steps: []func() (net.Conn, error){
		func() (net.Conn, error) { return nil, transient },
		func() (net.Conn, error) { return nil, transient },
		func() (net.Conn, error) { return srvConn, nil },
	}}
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.acceptLoop(ln)
	}()

	// The connection handed out after two errors is served normally.
	r := bufio.NewReader(client)
	if _, err := fmt.Fprintf(client, "GET %d\n", pairs[0].Key); err != nil {
		t.Fatal(err)
	}
	resp, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("VALUE %d", pairs[0].Value); strings.TrimSpace(resp) != want {
		t.Fatalf("GET after transient errors = %q, want %q", resp, want)
	}
	client.Close()

	select {
	case <-loopDone: // script exhausted -> net.ErrClosed -> clean return
	case <-time.After(10 * time.Second):
		t.Fatal("acceptLoop did not exit on net.ErrClosed")
	}
}

// TestGracefulShutdown: closing the listener and calling shutdown
// drains open connections (they see EOF, not a stuck read), closes the
// coalescer, and returns.
func TestGracefulShutdown(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 5)
	s := mustServer(t, tree, serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 32})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.acceptLoop(ln)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if got := sendLine(t, conn, r, fmt.Sprintf("GET %d", pairs[1].Key)); got != fmt.Sprintf("VALUE %d", pairs[1].Value) {
		t.Fatalf("pre-shutdown GET = %q", got)
	}

	// Shut down exactly as main does: listener first, then drain.
	ln.Close()
	<-loopDone
	done := make(chan struct{})
	go func() {
		s.shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung")
	}
	// The tracked connection was closed: the client sees EOF.
	if _, err := r.ReadString('\n'); err == nil {
		t.Fatal("connection still alive after shutdown")
	}
	conn.Close()
}

// TestScanAndDescribe drives the SCAN and DESCRIBE commands.
func TestScanAndDescribe(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 7)
	s := mustServer(t, tree, serveConfig{})
	dial := startServer(t, s)
	conn, r := dial()

	fmt.Fprintf(conn, "SCAN %d 5\n", pairs[10].Key)
	for i := 0; i < 5; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("PAIR %d %d", pairs[10+i].Key, pairs[10+i].Value)
		if strings.TrimSpace(line) != want {
			t.Fatalf("SCAN line %d = %q, want %q", i, strings.TrimSpace(line), want)
		}
	}
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "END" {
		t.Fatalf("SCAN terminator %q", line)
	}

	fmt.Fprintln(conn, "DESCRIBE")
	sawTree := false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(line, "HB+-tree") {
			sawTree = true
		}
		if strings.TrimSpace(line) == "END" {
			break
		}
	}
	if !sawTree {
		t.Fatal("DESCRIBE output missing tree header")
	}
}

// TestShardedProtocol drives the full protocol against the key-space
// sharded server: point reads route by key, writes land on the owning
// shard, RANGE stitches across shard boundaries, and STATS/SHARDSTATS
// report the per-shard layout.
func TestShardedProtocol(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Regular, 9)
	s := mustServer(t, tree, serveConfig{shards: 4, coalesce: true, window: 100 * time.Microsecond, maxBatch: 32})
	if s.srv.Shards() != 4 {
		t.Fatalf("serving %d shards, want 4", s.srv.Shards())
	}
	dial := startServer(t, s)
	conn, r := dial()
	send := func(line string) string { return sendLine(t, conn, r, line) }

	// Coalesced GETs route to the owning shard.
	for _, i := range []int{0, len(pairs) / 3, 2 * len(pairs) / 3, len(pairs) - 1} {
		want := fmt.Sprintf("VALUE %d", pairs[i].Value)
		if got := send(fmt.Sprintf("GET %d", pairs[i].Key)); got != want {
			t.Fatalf("GET pairs[%d] = %q, want %q", i, got, want)
		}
	}
	// Writes hit the owning shard's update pump and become visible.
	k := pairs[len(pairs)/2].Key
	if got := send(fmt.Sprintf("PUT %d 424242", k)); got != "OK" {
		t.Fatalf("PUT = %q", got)
	}
	if got := send(fmt.Sprintf("GET %d", k)); got != "VALUE 424242" {
		t.Fatalf("GET after PUT = %q", got)
	}
	if got := send(fmt.Sprintf("DEL %d", k)); got != "OK" {
		t.Fatalf("DEL = %q", got)
	}
	if got := send(fmt.Sprintf("GET %d", k)); got != "NOTFOUND" {
		t.Fatalf("GET after DEL = %q", got)
	}
	// RANGE starting before the last shard boundary and spanning past it
	// must stitch in key order. pairs is sorted, so compare directly
	// (skipping the deleted key).
	bounds := s.srv.Bounds()
	var startIdx int
	for startIdx = range pairs {
		if pairs[startIdx].Key >= bounds[len(bounds)-1] {
			break
		}
	}
	startIdx -= 2 // two pairs before the boundary, crossing into the last shard
	if _, err := fmt.Fprintf(conn, "RANGE %d 5\n", pairs[startIdx].Key); err != nil {
		t.Fatal(err)
	}
	want := make([]string, 0, 5)
	for i := startIdx; len(want) < 5; i++ {
		if pairs[i].Key == k {
			continue
		}
		want = append(want, fmt.Sprintf("PAIR %d %d", pairs[i].Key, pairs[i].Value))
	}
	for i := 0; i < 5; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if strings.TrimSpace(line) != want[i] {
			t.Fatalf("stitched RANGE line %d = %q, want %q", i, strings.TrimSpace(line), want[i])
		}
	}
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "END" {
		t.Fatalf("RANGE terminator = %q", line)
	}
	// STATS aggregates across shards and reports the shard count.
	got := send("STATS")
	if !strings.Contains(got, "shards=4") || !strings.Contains(got, fmt.Sprintf("pairs=%d", len(pairs)-1)) {
		t.Fatalf("STATS = %q", got)
	}
	// SHARDSTATS lists one line per shard then END.
	if _, err := fmt.Fprintln(conn, "SHARDSTATS"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(line, fmt.Sprintf("SHARD %d ", i)) {
			t.Fatalf("SHARDSTATS line %d = %q", i, line)
		}
	}
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "END" {
		t.Fatalf("SHARDSTATS terminator = %q", line)
	}
}

// TestSingleShardServesLayoutCommands: the default server is the sharded
// engine with one shard, so the layout commands work on it — SHARDSTATS
// lists its one shard, EPOCH carries the table generation and shard
// count, and it can be split online (and merged back) with every key
// still served and writes landing on both sides of the new bound. With
// -coalesce the coalescer was started over the one-shard layout and
// keeps serving the split one: a pipelined GET run whose keys alternate
// across the new bound is one group, routed per run at flush time.
func TestSingleShardServesLayoutCommands(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprintf("coalesce=%v", coalesce), func(t *testing.T) {
			singleShardServesLayoutCommands(t, serveConfig{coalesce: coalesce})
		})
	}
}

func singleShardServesLayoutCommands(t *testing.T, cfg serveConfig) {
	tree, pairs := newTestTree(t, hbtree.Regular, 8)
	s := mustServer(t, tree, cfg)
	dial := startServer(t, s)
	conn, r := dial()
	send := func(line string) string { return sendLine(t, conn, r, line) }

	if got := send("SHARDSTATS"); !strings.HasPrefix(got, fmt.Sprintf("SHARD 0 low=0 pairs=%d ", len(pairs))) {
		t.Fatalf("SHARDSTATS = %q", got)
	}
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "END" {
		t.Fatalf("SHARDSTATS second line = %q, want END after one shard", line)
	}
	if got := send("EPOCH"); !strings.HasPrefix(got, "EPOCH ") || !strings.HasSuffix(got, " gen=1 shards=1") {
		t.Fatalf("EPOCH = %q", got)
	}
	if got := send("REBALANCE MERGE 0"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("REBALANCE MERGE on one shard = %q", got)
	}

	if got := send("REBALANCE SPLIT 0"); got != "OK" {
		t.Fatalf("REBALANCE SPLIT = %q", got)
	}
	if got := send("EPOCH"); !strings.HasSuffix(got, " gen=2 shards=2") {
		t.Fatalf("EPOCH after split = %q", got)
	}
	for _, p := range pairs {
		if got, want := send(fmt.Sprintf("GET %d", p.Key)), fmt.Sprintf("VALUE %d", p.Value); got != want {
			t.Fatalf("GET %d after split = %q, want %q", p.Key, got, want)
		}
	}
	// One pipelined run, adjacent keys on opposite sides of the bound
	// (pairs are in key order).
	var run strings.Builder
	const depth = 64
	straddle := func(i int) hbtree.Pair[uint64] {
		if i%2 == 1 {
			return pairs[len(pairs)-i]
		}
		return pairs[i]
	}
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&run, "GET %d\n", straddle(i).Key)
	}
	if _, err := io.WriteString(conn, run.String()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(replyWait))
	for i := 0; i < depth; i++ {
		got, err := r.ReadString('\n')
		if want := fmt.Sprintf("VALUE %d\n", straddle(i).Value); err != nil || got != want {
			t.Fatalf("pipelined GET %d of the run across the bound = %q, %v, want %q", i, got, err, want)
		}
	}
	// One write on each side of the new bound: an insert just below it,
	// an overwrite of the bound key itself.
	bound := s.srv.Bounds()[0]
	for i, k := range []uint64{bound - 1, bound} {
		if got := send(fmt.Sprintf("PUT %d %d", k, 1000+i)); got != "OK" {
			t.Fatalf("PUT %d = %q", k, got)
		}
		if got, want := send(fmt.Sprintf("GET %d", k)), fmt.Sprintf("VALUE %d", 1000+i); got != want {
			t.Fatalf("GET %d = %q, want %q", k, got, want)
		}
	}

	if got := send("REBALANCE MERGE 0"); got != "OK" {
		t.Fatalf("REBALANCE MERGE = %q", got)
	}
	if got := send("EPOCH"); !strings.HasSuffix(got, " gen=3 shards=1") {
		t.Fatalf("EPOCH after merge = %q", got)
	}
	if got := send(fmt.Sprintf("GET %d", bound-1)); got != "VALUE 1000" {
		t.Fatalf("GET %d after merge = %q", bound-1, got)
	}
}

// gatedBackend is the server with a gate in front of its batch search:
// a test holds the gate shut to keep the engine busy.
type gatedBackend struct {
	*serve.Server[uint64]
	gate    sync.RWMutex
	arrived atomic.Int32 // flushes that have reached the gate
}

func (b *gatedBackend) LookupBatchSortedInto(q, v []uint64, f []bool) (core.SearchStats, error) {
	b.arrived.Add(1)
	b.gate.RLock()
	defer b.gate.RUnlock()
	return b.Server.LookupBatchSortedInto(q, v, f)
}

// waitFor polls cond until it holds, failing the test after replyWait.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(replyWait); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// busyServer starts a coalescing server (cfg, one shard) whose engine
// is busy: a first connection's GET found the coalescer idle, flushed
// its own batch, and is held inside the batch search by the shut gate —
// with its admission token, if the window is bounded. With the engine
// idle a coalesced GET is answered at once, so this is what "a request
// in flight" takes. open releases the gate; cleanup does it before the
// server shuts down, which waits for that first handler.
func busyServer(t *testing.T, cfg serveConfig) (s *server, dial func() (net.Conn, *bufio.Reader), pairs []hbtree.Pair[uint64], open func()) {
	t.Helper()
	tree, pairs := newTestTree(t, hbtree.Implicit, 13)
	cfg.coalesce = false
	s = mustServer(t, tree, cfg)
	be := &gatedBackend{Server: s.srv.Server}
	s.co = serve.NewCoalescer[uint64](be, coalescerOptions(cfg))
	dial = startServer(t, s)
	be.gate.Lock()
	var once sync.Once
	open = func() { once.Do(be.gate.Unlock) }
	t.Cleanup(open)
	conn, _ := dial()
	if _, err := fmt.Fprintf(conn, "GET %d\n", pairs[0].Key); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the first GET's flush to reach the gate", func() bool { return be.arrived.Load() == 1 })
	return s, dial, pairs, open
}

// TestShutdownUnblocksParkedCoalescedGET: regression for the graceful
// drain hanging behind a parked read. A GET queued behind a flush that
// does not finish (and an hour-long window) leaves its connection
// handler parked inside the coalescer, and a closed client socket does
// not unpark it — only the coalescer's Close does. shutdown must
// therefore close the coalescer before waiting on the handlers, failing
// the parked read instead of waiting for the engine.
func TestShutdownUnblocksParkedCoalescedGET(t *testing.T) {
	s, dial, pairs, open := busyServer(t, serveConfig{window: time.Hour, maxBatch: 64})
	conn, r := dial()
	if _, err := fmt.Fprintf(conn, "GET %d\n", pairs[1].Key); err != nil {
		t.Fatal(err)
	}
	// No reply can arrive while the gate is shut; give the handler a
	// moment to park inside the coalesced lookup.
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		s.shutdown()
		close(done)
	}()
	// The parked handler must exit while the engine is still stuck: only
	// the first connection's, inside the gated flush, may remain.
	waitFor(t, "shutdown to release the parked GET", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns) == 1
	})
	// The parked read was failed, not served: the client sees the
	// shutdown error, or EOF if its conn was torn down first.
	conn.SetReadDeadline(time.Now().Add(replyWait))
	if resp, err := r.ReadString('\n'); err == nil && strings.TrimSpace(resp) != "ERR CLOSED" {
		t.Fatalf("parked GET reply = %q", resp)
	}
	open()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown hung after the engine came back")
	}
}

// TestErrOverloadedCarriesRetryHint: with shed-mode admission control a
// refused GET answers the typed OVERLOADED code with a machine-readable
// retry-after hint instead of prose.
func TestErrOverloadedCarriesRetryHint(t *testing.T) {
	// The first GET holds the lone admission slot inside the gated flush.
	_, dial, pairs, _ := busyServer(t, serveConfig{
		window: time.Hour, maxBatch: 64, maxPending: 1, shed: true,
	})
	conn2, r2 := dial()
	got := sendLine(t, conn2, r2, fmt.Sprintf("GET %d", pairs[1].Key))
	if !strings.HasPrefix(got, "ERR OVERLOADED retry-after-ms=") {
		t.Fatalf("shed GET = %q", got)
	}
	if got := sendLine(t, conn2, r2, "STATS"); !strings.Contains(got, "shed=1") {
		t.Fatalf("STATS after shed = %q", got)
	}
}

// TestErrDeadlineOnParkedGET: with -deadline set, a GET parked behind a
// flush that does not finish, in a coalescing window that will not fire,
// answers ERR DEADLINE when its budget expires — the client is never
// parked for the engine or the window.
func TestErrDeadlineOnParkedGET(t *testing.T) {
	const deadline = 100 * time.Millisecond
	_, dial, pairs, _ := busyServer(t, serveConfig{
		window: time.Hour, maxBatch: 64, deadline: deadline,
	})
	conn, r := dial()

	start := time.Now()
	got := sendLine(t, conn, r, fmt.Sprintf("GET %d", pairs[1].Key))
	elapsed := time.Since(start)
	if got != "ERR DEADLINE" {
		t.Fatalf("parked GET with deadline = %q", got)
	}
	if elapsed > 10*deadline {
		t.Fatalf("deadline reply took %v with a %v budget", elapsed, deadline)
	}
	if got := sendLine(t, conn, r, "STATS"); !strings.Contains(got, "deadlines=1") {
		t.Fatalf("STATS after deadline = %q", got)
	}
}

// TestOverlongLineGetsReply: a request line past the 64 KiB scanner
// buffer cannot be parsed or skipped, so the connection ends — but with
// a typed reply first, and the server keeps serving other connections.
func TestOverlongLineGetsReply(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 13)
	s := mustServer(t, tree, serveConfig{})
	dial := startServer(t, s)
	conn, r := dial()
	if got := sendLine(t, conn, r, "GET "+strings.Repeat("9", 80<<10)); got != "ERR line too long" {
		t.Fatalf("overlong line reply = %q", got)
	}
	conn.(*net.TCPConn).CloseWrite()
	conn.SetReadDeadline(time.Now().Add(replyWait))
	if _, err := r.ReadString('\n'); !errors.Is(err, io.EOF) {
		t.Fatalf("connection after an overlong line: err = %v, want EOF", err)
	}
	conn2, r2 := dial()
	want := fmt.Sprintf("VALUE %d", pairs[0].Value)
	if got := sendLine(t, conn2, r2, fmt.Sprintf("GET %d", pairs[0].Key)); got != want {
		t.Fatalf("GET on a fresh connection = %q, want %q", got, want)
	}
}

// TestStatsDegradedModeFields: STATS exposes the degraded-mode counters
// and the breaker state even on a healthy server, so dashboards can
// scrape them unconditionally.
func TestStatsDegradedModeFields(t *testing.T) {
	tree, _ := newTestTree(t, hbtree.Implicit, 13)
	s := mustServer(t, tree, serveConfig{})
	dial := startServer(t, s)
	conn, r := dial()
	got := sendLine(t, conn, r, "STATS")
	for _, field := range []string{
		"gpufaults=0", "retries=0", "fallbacks=0", "fbqueries=0",
		"deadlines=0", "shed=0", "trips=0", "breaker=closed",
	} {
		if !strings.Contains(got, field) {
			t.Fatalf("STATS missing %q: %q", field, got)
		}
	}
}

// TestCoalescedGETSurvivesTotalKernelOutage: with every kernel launch
// failing, a coalesced GET is still answered correctly — the serving
// layer retries, trips the breaker and degrades to the CPU fallback,
// and the protocol never shows the client an error.
func TestCoalescedGETSurvivesTotalKernelOutage(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 13)
	tree.Device().SetInjector(fault.New(fault.Options{Seed: 7, Kernel: 1.0}))
	s := mustServer(t, tree, serveConfig{
		coalesce: true, window: time.Millisecond, maxBatch: 64,
	})
	dial := startServer(t, s)
	conn, r := dial()

	for i := 0; i < 8; i++ {
		p := pairs[(i*97)%len(pairs)]
		want := fmt.Sprintf("VALUE %d", p.Value)
		if got := sendLine(t, conn, r, fmt.Sprintf("GET %d", p.Key)); got != want {
			t.Fatalf("GET %d under outage = %q, want %q", p.Key, got, want)
		}
	}
	got := sendLine(t, conn, r, "STATS")
	if !strings.Contains(got, "breaker=open") || strings.Contains(got, "gpufaults=0 ") {
		t.Fatalf("STATS under outage = %q", got)
	}
}

// TestRebalanceProtocol drives the epoch and online-rebalance commands
// against the sharded server: EPOCH reports the registry epoch and
// table generation, REBALANCE SPLIT/MERGE retile the key space while
// the connection keeps serving, SCANC reads one atomic cross-shard
// cut, and the counters land in REBALANCE STATS and STATS.
func TestRebalanceProtocol(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Regular, 9)
	s := mustServer(t, tree, serveConfig{shards: 4})
	dial := startServer(t, s)
	conn, r := dial()
	send := func(line string) string { return sendLine(t, conn, r, line) }

	if got := send("EPOCH"); !strings.HasPrefix(got, "EPOCH ") || !strings.Contains(got, "gen=1") || !strings.Contains(got, "shards=4") {
		t.Fatalf("EPOCH = %q", got)
	}
	if got := send("REBALANCE SPLIT 0"); got != "OK" {
		t.Fatalf("REBALANCE SPLIT = %q", got)
	}
	if got := send("EPOCH"); !strings.Contains(got, "gen=2") || !strings.Contains(got, "shards=5") {
		t.Fatalf("EPOCH after split = %q", got)
	}
	got := send("REBALANCE STATS")
	for _, field := range []string{"gen=2", "shards=5", "rebalances=1", "splits=1", "merges=0"} {
		if !strings.Contains(got, field) {
			t.Fatalf("REBALANCE STATS missing %q: %q", field, got)
		}
	}
	// A write through the post-split layout is acked and visible.
	k := pairs[3].Key
	if got := send(fmt.Sprintf("PUT %d 777", k)); got != "OK" {
		t.Fatalf("PUT after split = %q", got)
	}
	// SCANC streams the whole dataset from one pinned epoch, in order.
	if _, err := fmt.Fprintf(conn, "SCANC %d %d\n", pairs[0].Key, len(pairs)); err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		wantV := pairs[i].Value
		if pairs[i].Key == k {
			wantV = 777
		}
		if want := fmt.Sprintf("PAIR %d %d", pairs[i].Key, wantV); strings.TrimSpace(line) != want {
			t.Fatalf("SCANC line %d = %q, want %q", i, strings.TrimSpace(line), want)
		}
	}
	if line, _ := r.ReadString('\n'); strings.TrimSpace(line) != "END" {
		t.Fatalf("SCANC terminator = %q", line)
	}
	if got := send("REBALANCE MERGE 0"); got != "OK" {
		t.Fatalf("REBALANCE MERGE = %q", got)
	}
	if got := send("EPOCH"); !strings.Contains(got, "gen=3") || !strings.Contains(got, "shards=4") {
		t.Fatalf("EPOCH after merge = %q", got)
	}
	if got := send("REBALANCE SPLIT 99"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("out-of-range split = %q", got)
	}
	if got := send("REBALANCE NOPE"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad subcommand = %q", got)
	}
	if got := send("STATS"); !strings.Contains(got, "rebalances=2") {
		t.Fatalf("STATS rebalance counter: %q", got)
	}
}

// TestStatsOverloadFieldsStatic: the overload telemetry fields are
// present (zeroed) on a plain static server, so dashboards can scrape
// them unconditionally; with -coalesce-pending the window STATS reports
// is the flag's value whatever -shards is — one budget per server — and
// SHARDSTATS, which has nothing per shard to say about admission, carries
// none of the fields. Admission has no latency target, so no key names
// one.
func TestStatsOverloadFieldsStatic(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    serveConfig
		window string
	}{
		{"plain", serveConfig{}, "admit_window=0"},
		{"pending-8-shards-4", serveConfig{coalesce: true, maxPending: 8, shards: 4}, "admit_window=8"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, _ := newTestTree(t, hbtree.Implicit, 13)
			s := mustServer(t, tree, tc.cfg)
			dial := startServer(t, s)
			conn, r := dial()
			got := sendLine(t, conn, r, "STATS")
			for _, field := range []string{"shed_rate=0.00", tc.window} {
				if !strings.Contains(got, " "+field+" ") {
					t.Fatalf("STATS missing %q: %q", field, got)
				}
			}
			for _, f := range strings.Fields(got) {
				if strings.HasPrefix(f, "target") {
					t.Fatalf("STATS still reports a latency target (%s): %q", f, got)
				}
			}
			line := sendLine(t, conn, r, "SHARDSTATS")
			for shard := 0; line != "END"; shard++ {
				if !strings.HasPrefix(line, fmt.Sprintf("SHARD %d ", shard)) || strings.Contains(line, "shed") || strings.Contains(line, "admit_window") {
					t.Fatalf("SHARDSTATS line %d = %q", shard, line)
				}
				next, err := r.ReadString('\n')
				if err != nil {
					t.Fatal(err)
				}
				line = strings.TrimSpace(next)
			}
		})
	}
}
