package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"hbtree"
)

// Tests for the connection loop: whatever way a request stream is cut
// into reads, the reply stream is the one a line-at-a-time server writes.

// scriptConn is a connection whose reads return a fixed sequence of
// chunks, one per Read, and then err (io.EOF when nil); writes collect in
// out, and the length of each one in writes. It makes serveConn's read
// boundaries a test input instead of a kernel accident.
type scriptConn struct {
	net.Conn // nil: only the methods serveConn uses are defined
	chunks   [][]byte
	err      error
	out      bytes.Buffer
	writes   []int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		if c.err != nil {
			return 0, c.err
		}
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}
func (c *scriptConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, len(p))
	return c.out.Write(p)
}
func (c *scriptConn) Close() error                    { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }

// converse serves input to s over one connection, cut into reads at the
// given offsets, and returns everything the server wrote.
func converse(s *server, input []byte, cuts []int) []byte {
	c := &scriptConn{}
	prev := 0
	for _, cut := range append(cuts, len(input)) {
		if cut > prev {
			c.chunks = append(c.chunks, input[prev:cut])
			prev = cut
		}
	}
	s.serveConn(c)
	return c.out.Bytes()
}

// connModes are the serving stacks the connection loop runs over.
type connMode struct {
	name string
	cfg  serveConfig
}

var connModes = []connMode{
	{"1-shard", serveConfig{shards: 1}},
	{"1-shard-coalesced", serveConfig{shards: 1, coalesce: true, window: 100 * time.Microsecond, maxBatch: 8}},
	{"4-shard", serveConfig{shards: 4}},
	{"4-shard-coalesced", serveConfig{shards: 4, coalesce: true, window: 100 * time.Microsecond, maxBatch: 8}},
}

// splitRig holds, per serving mode, three identical servers: one is fed
// every stream whole, one a byte per read, one cut at random offsets.
// Streams carry writes, so the three stay comparable only by seeing the
// same streams in the same order — which is all a rig is ever given.
type splitRig struct {
	pairs   []hbtree.Pair[uint64]
	servers [][3]*server
}

func newSplitRig(t testing.TB) *splitRig {
	t.Helper()
	rig := &splitRig{pairs: hbtree.GeneratePairs[uint64](1<<10, 42)}
	for _, m := range connModes {
		var trio [3]*server
		for i := range trio {
			tree, err := hbtree.New(rig.pairs, hbtree.Options{Variant: hbtree.Regular, BucketSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			trio[i] = mustServer(t, tree, m.cfg)
		}
		rig.servers = append(rig.servers, trio)
	}
	return rig
}

func (rig *splitRig) close() {
	for _, trio := range rig.servers {
		for _, s := range trio {
			s.shutdown()
		}
	}
}

// comparableStream reports whether every line of input is one whose reply is a
// function of the stream alone: STATS-like commands report counters that
// legitimately differ with how the stream was batched, and the layout
// commands change what later lines see.
func comparableStream(input []byte) bool {
	for _, line := range bytes.Split(input, []byte{'\n'}) {
		fields := strings.Fields(string(line))
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "STATS", "SHARDSTATS", "PERSIST", "DESCRIBE", "EPOCH", "REBALANCE", "SNAPSHOT":
			return false
		}
	}
	return true
}

// check serves input to every mode's three servers and requires the
// three reply streams of a mode to be byte-identical — and, when the
// replies are a function of the stream alone (comparableStream), the
// reply stream of every mode to be byte-identical to the first mode's:
// one shard answers as four do, per-request GETs as coalesced ones.
func (rig *splitRig) check(t *testing.T, input []byte, seed int64) {
	t.Helper()
	every := make([]int, len(input))
	for i := range every {
		every[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	var random []int
	for i := range input {
		if rng.Intn(7) == 0 {
			random = append(random, i)
		}
	}
	crossMode := comparableStream(input)
	var first []byte
	for m, trio := range rig.servers {
		whole := converse(trio[0], input, nil)
		if m == 0 {
			first = whole
		} else if crossMode && !bytes.Equal(whole, first) {
			t.Fatalf("replies differ between %s and %s\ninput  %q\n%s  %q\n%s  %q",
				connModes[0].name, connModes[m].name, input, connModes[0].name, first, connModes[m].name, whole)
		}
		for i, cuts := range [][]int{every, random} {
			if got := converse(trio[i+1], input, cuts); !bytes.Equal(got, whole) {
				t.Fatalf("%s: replies differ between one write and %s\ninput  %q\nwhole  %q\nsplit  %q",
					connModes[m].name, [...]string{"a byte per read", "random cuts"}[i], input, whole, got)
			}
		}
	}
}

// randomStream builds a request stream mixing pipelined GETs (hits,
// misses, duplicates), writes, ranges, malformed and blank lines, CRLF
// endings and, sometimes, a last line without its newline.
func randomStream(rng *rand.Rand, pairs []hbtree.Pair[uint64]) []byte {
	var b bytes.Buffer
	key := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64(rng.Intn(64)) // mostly absent, and collides with PUTs below
		}
		return pairs[rng.Intn(len(pairs))].Key
	}
	for n := rng.Intn(60); n >= 0; n-- {
		switch r := rng.Intn(100); {
		case r < 55:
			for run := 1 + rng.Intn(12); run > 0; run-- {
				fmt.Fprintf(&b, "GET %d\n", key())
			}
		case r < 65:
			fmt.Fprintf(&b, "PUT %d %d\n", key(), rng.Intn(1000))
		case r < 72:
			fmt.Fprintf(&b, "DEL %d\n", key())
		case r < 77:
			fmt.Fprintf(&b, "RANGE %d %d\n", key(), rng.Intn(5))
		case r < 80:
			fmt.Fprintf(&b, "get\t%d \r\n", key())
		default:
			b.WriteString([]string{
				"\n", "   \n", "\r\n", "GET\n", "GET abc\n", "GET 1 2\n", "GET 99999999999999999999999\n",
				"GET 5\n", "GETX 5\n", "PUT 5\n", "DEL\n", "FLY me\n", "\x00\xff\n", "SCAN 0 2\n",
			}[rng.Intn(14)])
		}
	}
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, "GET %d", key())
	}
	return b.Bytes()
}

// TestServeConnSplitInvariant is the seeded half of FuzzServeConn:
// random request streams, plus the edge cases spelled out, get the same
// replies however the stream is cut into reads and whatever serves it —
// one shard and four, without and with -coalesce.
func TestServeConnSplitInvariant(t *testing.T) {
	rig := newSplitRig(t)
	defer rig.close()
	k := rig.pairs[5]
	overlong := "GET " + strings.Repeat("9", maxLine)
	for i, input := range []string{
		"",
		"\n\n",
		fmt.Sprintf("GET %d", k.Key),
		fmt.Sprintf("GET %d\r\nGET %d\r\n", k.Key, k.Key),
		fmt.Sprintf("GET %d\nGET\nGET x\nGET %d\n\nGET %d\n", k.Key, k.Key, k.Key),
		fmt.Sprintf("GET %d\nQUIT\nGET %d\n", k.Key, k.Key),
		fmt.Sprintf("GET %d\n%s\nGET %d\n", k.Key, overlong, k.Key),
		"GET " + strings.Repeat("9", maxLine-6) + "\nGET 1\n", // the longest line that fits
	} {
		rig.check(t, []byte(input), int64(i))
	}
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rounds; i++ {
		rig.check(t, randomStream(rng, rig.pairs), int64(i))
	}
}

// TestRepliesLeaveOncePerDrainedRead pins when replies leave, in every
// serving mode: the replies to a run of GETs read in one piece are
// flushed once, after the drained read, and the only thing that splits
// them into more writes is the writer filling up — every write but the
// last then carries exactly the writer's 4096 bytes.
func TestRepliesLeaveOncePerDrainedRead(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
	for _, m := range connModes {
		tree, err := hbtree.New(pairs, hbtree.Options{BucketSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		s := mustServer(t, tree, m.cfg)
		for _, n := range []int{8, 400} {
			var input, want []byte
			for _, p := range pairs[:n] {
				input = fmt.Appendf(input, "GET %d\n", p.Key)
				want = fmt.Appendf(want, "VALUE %d\n", p.Value)
			}
			c := &scriptConn{chunks: [][]byte{input}}
			s.serveConn(c)
			if !bytes.Equal(c.out.Bytes(), want) {
				t.Fatalf("%s: replies to %d pipelined GETs = %q, want %q", m.name, n, c.out.Bytes(), want)
			}
			if n == 8 && len(c.writes) != 1 {
				t.Errorf("%s: 8 pipelined GETs read in one piece took %d writes %v, want 1", m.name, len(c.writes), c.writes)
			}
			for i, size := range c.writes[:len(c.writes)-1] {
				if size != 4096 {
					t.Errorf("%s: write %d of %d for %d pipelined GETs carried %d bytes, want the writer's 4096 (writes %v)",
						m.name, i, len(c.writes), n, size, c.writes)
					break
				}
			}
		}
		s.shutdown()
	}
}

// TestReadErrorDropsPartialLine: a connection that breaks mid-line — a
// reset, or shutdown closing it — leaves an unterminated tail that may be
// a longer request cut short ("PUT 77 12" of "PUT 77 123"). Only EOF makes
// that tail a request; after any other read error it is dropped, with no
// write applied and no reply sent.
func TestReadErrorDropsPartialLine(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
	for _, m := range connModes {
		tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular, BucketSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		s := mustServer(t, tree, m.cfg)
		if _, ok := s.srv.Lookup(77); ok {
			t.Fatalf("%s: key 77 is in the dataset; pick another", m.name)
		}
		c := &scriptConn{chunks: [][]byte{[]byte("PUT 77 12")}, err: net.ErrClosed}
		s.serveConn(c)
		if v, ok := s.srv.Lookup(77); ok {
			t.Errorf("%s: the cut-off line was executed: key 77 = %d", m.name, v)
		}
		if c.out.Len() != 0 {
			t.Errorf("%s: replied %q to a line cut off by a read error", m.name, c.out.Bytes())
		}
		s.shutdown()
	}
}

// TestHalfClosedClientGetsEveryReply: a client that pipelines GETs, ends
// with one that has no newline and then half-closes its side gets every
// reply, in order, before the server's FIN — over a real socket, in every
// serving mode.
func TestHalfClosedClientGetsEveryReply(t *testing.T) {
	const n = 40
	for _, m := range connModes {
		t.Run(m.name, func(t *testing.T) {
			tree, pairs := newTestTree(t, hbtree.Implicit, 13)
			dial := startServer(t, mustServer(t, tree, m.cfg))
			conn, r := dial()
			var req []byte
			for i := 0; i <= n; i++ {
				req = fmt.Appendf(req, "GET %d\n", pairs[i*37].Key)
			}
			if _, err := conn.Write(req[:len(req)-1]); err != nil {
				t.Fatal(err)
			}
			if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(replyWait))
			for i := 0; i <= n; i++ {
				resp, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("reply %d of %d: %v", i, n+1, err)
				}
				if want := fmt.Sprintf("VALUE %d\n", pairs[i*37].Value); resp != want {
					t.Fatalf("reply %d = %q, want %q", i, resp, want)
				}
			}
			if extra, err := r.ReadString('\n'); err != io.EOF {
				t.Fatalf("after %d replies: read %q, %v; want EOF", n+1, extra, err)
			}
		})
	}
}

// TestPipelinedReadYourWrite: non-GET lines are barriers, so a client
// that pipelines a write and reads of the same key in one write reads
// its own write, in every serving mode.
func TestPipelinedReadYourWrite(t *testing.T) {
	const input = "PUT 77 5\nGET 77\nGET 77\nDEL 77\nGET 77\nPUT 77 6\nGET 77\n"
	const want = "OK\nVALUE 5\nVALUE 5\nOK\nNOTFOUND\nOK\nVALUE 6\n"
	pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
	for _, m := range connModes {
		tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular, BucketSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		s := mustServer(t, tree, m.cfg)
		if got := string(converse(s, []byte(input), nil)); got != want {
			t.Errorf("%s: replies = %q, want %q", m.name, got, want)
		}
		s.shutdown()
	}
}

// TestOverlongLineAfterPipelinedGETs: the lines ahead of an overlong one
// are answered, then the typed error, then nothing.
func TestOverlongLineAfterPipelinedGETs(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 13)
	s := mustServer(t, tree, serveConfig{})
	defer s.shutdown()
	input := fmt.Sprintf("GET %d\nGET %s\nGET %d\n", pairs[0].Key, strings.Repeat("9", 80<<10), pairs[1].Key)
	want := fmt.Sprintf("VALUE %d\nERR line too long\n", pairs[0].Value)
	if got := string(converse(s, []byte(input), nil)); got != want {
		t.Fatalf("replies = %q, want %q", got, want)
	}
}

// statField extracts key=<int> from a STATS line.
func statField(t *testing.T, stats, key string) int64 {
	t.Helper()
	for _, f := range strings.Fields(stats) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("STATS %s=%q: %v", key, v, err)
			}
			return n
		}
	}
	t.Fatalf("STATS has no %s=: %q", key, stats)
	return 0
}

// TestPipelinedConnectionFormsBatches: a connection that keeps 16 GETs
// in flight gets them answered as batches of about 16 (one per shard
// group when sharded, each with that shard's share) — over a real
// socket, with the default window — and none of those batches had to
// wait for the window timer. STATS says why each batch was flushed.
func TestPipelinedConnectionFormsBatches(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tree, pairs := newTestTree(t, hbtree.Implicit, 13)
			s := mustServer(t, tree, serveConfig{coalesce: true, window: 100 * time.Microsecond, shards: shards})
			dial := startServer(t, s)
			conn, r := dial()

			const depth, rounds = 16, 50
			for round := 0; round < rounds; round++ {
				var req strings.Builder
				for d := 0; d < depth; d++ {
					fmt.Fprintf(&req, "GET %d\n", pairs[(round*depth+d)*257%len(pairs)].Key)
				}
				if _, err := io.WriteString(conn, req.String()); err != nil {
					t.Fatal(err)
				}
				conn.SetReadDeadline(time.Now().Add(replyWait))
				for d := 0; d < depth; d++ {
					resp, err := r.ReadString('\n')
					if err != nil {
						t.Fatal(err)
					}
					if want := fmt.Sprintf("VALUE %d\n", pairs[(round*depth+d)*257%len(pairs)].Value); resp != want {
						t.Fatalf("round %d reply %d = %q, want %q", round, d, resp, want)
					}
				}
			}
			stats := sendLine(t, conn, r, "STATS")
			flushes := statField(t, stats, "flush_full") + statField(t, stats, "flush_idle") +
				statField(t, stats, "flush_handoff") + statField(t, stats, "flush_deadline")
			if mean := float64(depth*rounds) / float64(flushes); mean < float64(depth/shards)/2 {
				t.Fatalf("coalesced flushes held %.1f GETs on average with %d pipelined over %d shards: %q", mean, depth, shards, stats)
			}
			if shards == 1 {
				if b, q := statField(t, stats, "batches"), statField(t, stats, "batched"); q != depth*rounds || q < 8*b {
					t.Fatalf("batched/batches = %d/%d, want %d GETs in batches of at least 8: %q", q, b, depth*rounds, stats)
				}
			}
			if n := statField(t, stats, "flush_deadline"); n != 0 {
				t.Fatalf("flush_deadline=%d: a pipelined GET waited out the window: %q", n, stats)
			}
		})
	}
}

// TestServeLinesGETAllocFree pins zero allocations per drained read
// buffer on the pipelined GET path — cut lines, parse keys, one group
// lookup, encode replies — for every serving mode, with an admission
// window engaged too.
func TestServeLinesGETAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
	modes := append(connModes[:len(connModes):len(connModes)],
		connMode{"coalesced-bounded", serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 64, maxPending: 256}})
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			tree, err := hbtree.New(pairs, hbtree.Options{BucketSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			s := mustServer(t, tree, m.cfg)
			defer s.shutdown()
			var buf []byte
			for i := 0; i < 16; i++ {
				buf = fmt.Appendf(buf, "GET %d\n", pairs[i*37%len(pairs)].Key)
			}
			w := bufio.NewWriter(io.Discard)
			run := &getRun{limit: s.groupLimit()}
			for i := 0; i < 32; i++ { // warm the scratch, cell and batch pools
				s.serveLines(w, run, buf, false)
				w.Flush()
			}
			allocs := testing.AllocsPerRun(200, func() {
				if n, quit := s.serveLines(w, run, buf, false); n != len(buf) || quit {
					t.Fatalf("consumed %d of %d bytes, quit=%v", n, len(buf), quit)
				}
				w.Flush()
			})
			if allocs != 0 {
				t.Fatalf("a buffer of 16 pipelined GETs allocates %.1f times, want 0", allocs)
			}
		})
	}
}
