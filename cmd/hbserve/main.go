// Command hbserve exposes an HB+-tree as a tiny line-oriented TCP
// key-value service — a minimal end-to-end integration of the index into
// a server, the kind of lookup-intensive deployment (OLAP, decision
// support) the paper targets.
//
// Protocol (one request per line):
//
//	GET <key>            -> VALUE <v> | NOTFOUND
//	PUT <key> <value>    -> OK | ERR (regular variant only)
//	DEL <key>            -> OK | NOTFOUND | ERR (regular variant only)
//	RANGE <start> <n>    -> n lines "PAIR <k> <v>", then END
//	SCAN <start> <n>     -> like RANGE but streamed through a cursor
//	SCANC <start> <n>    -> SCAN from one atomic cross-shard cut (one pinned epoch)
//	RANGEC <start> <n>   -> RANGE from one atomic cross-shard cut
//	EPOCH                -> EPOCH <n> gen=<g> shards=<s>: snapshot epoch, shard-table generation, shard count
//	REBALANCE SPLIT <i>  -> split shard i at its median key online; OK | ERR
//	REBALANCE MERGE <i>  -> merge shards i and i+1 online; OK | ERR
//	REBALANCE STATS      -> epoch, table generation, split/merge counters
//	DESCRIBE             -> multi-line tree report, then END
//	STATS                -> tree geometry, device counters, serving metrics
//	SHARDSTATS           -> one "SHARD <i> ..." line per shard, then END
//	PERSIST              -> WAL/snapshot counters and recovery stats (-data-dir only)
//	SNAPSHOT             -> commit an epoch-aligned snapshot now; OK epoch=<e> | ERR
//	QUIT                 -> closes the connection
//
// Connections are served concurrently through the hbtree.Server
// reader/writer contract, and each connection is served pipeline-aware:
// every complete line already read is executed before the next read,
// runs of consecutive GETs together, replies in request order, and the
// replies to one read leave in one write (or one per 4 KiB of replies).
// Without -coalesce each GET of a run is looked up on its own; with it
// the run is one group, and those groups — from all connections — are
// coalesced into heterogeneous batch searches of up to a bucket (the
// paper's intended operating point): a batch leaves when it is full or
// as soon as no other flush is running, so batch size follows load and
// -coalesce-window is only the longest a GET waits for companions.
// -coalesce-pending bounds the coalescer's in-flight window,
// one static budget per server, with backpressure or (-coalesce-shed)
// fail-fast shedding; a shed GET's retry hint is one -coalesce-window,
// at least 1 ms. There is one serving engine, the key-space sharded
// server: -shards T (default 1) builds T trees, each with its own
// snapshot pointer and update pump, so writes clone 1/T of the data and
// rebuilds overlap; one shard serves the tree as it was built and can be
// split online like any other. PUT/DEL drive the regular variant's batch
// update path through the owning shard's pump. SIGINT/SIGTERM trigger a
// graceful shutdown that drains in-flight requests — including
// dispatched per-shard update jobs — before exiting.
//
// Failures map to machine-parseable ERR codes so clients can pick the
// right reaction (see README "Error codes"):
//
//	ERR OVERLOADED retry-after-ms=<n>   admission shed the request; retry after the hint
//	ERR DEADLINE                        the -deadline budget expired; retrying may help
//	ERR CLOSED                          the server is shutting down; do not retry here
//
// -deadline bounds each GET/PUT/DEL. The HBTREE_FAULT environment
// variable ("kernel=1,seed=7", see fault.Parse) arms the deterministic
// GPU fault injector (kernel/transfer/allocation failure rates, reset
// bursts) so degraded-mode serving — circuit breaker, CPU-only
// fallback — can be exercised end to end against a live server. It arms
// when the serving engine is constructed: after the bulk load, before
// any recovery replay.
//
// The server bulk-loads a synthetic uniform dataset at startup.
//
// -data-dir <dir> turns on the durability subsystem (DESIGN §8): every
// acked PUT/DEL is appended to a per-partition write-ahead log and
// group-commit fsynced (-fsync-interval) BEFORE the OK is written, and
// epoch-aligned snapshots (-snapshot-every, the SNAPSHOT command, and
// shutdown) bound the log so a restart bulk-loads the snapshot images
// and replays only the WAL tail. A dir holding a committed snapshot is
// recovered — its shard layout (one shard or many) wins over -shards and
// the seed flags are ignored. An implicit (read-only) index persisted
// this way restarts from its snapshot without rebuilding.
//
// -pprof <addr> serves net/http/pprof on a side listener (e.g.
// -pprof localhost:6060, then `go tool pprof
// http://localhost:6060/debug/pprof/profile`) for inspecting the
// serving hot path under live load.
package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unicode"
	"unicode/utf8"

	"hbtree"
	"hbtree/internal/fault"
	"hbtree/internal/serve"
)

// sentinelKey is the maximum key, reserved internally as the +infinity
// fence; the update path silently skips it, so the protocol rejects it.
const sentinelKey = ^uint64(0)

// joinInts renders an int slice as a comma-joined STATS field value
// ("none" when empty, so the key=value grammar never emits spaces).
func joinInts(xs []int) string {
	if len(xs) == 0 {
		return "none"
	}
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// maxCount bounds RANGE/SCAN result sizes.
const maxCount = 1 << 20

// server wires the serving layer to the TCP front end: all reads go
// through srv (and, when enabled, the coalescer), all writes through
// srv's shard pumps (by way of dur when durable), and open connections
// are tracked for shutdown.
type server struct {
	srv *hbtree.Server[uint64]
	co  *serve.Coalescer[uint64] // nil when -coalesce is off
	dur *hbtree.Durable[uint64]  // non-nil with -data-dir; all writes route through it

	deadline      time.Duration // per-request budget for GET/PUT/DEL (0 = none)
	maxBatch      int           // -coalesce-batch (0 = the tree's bucket size)
	overloadReply string        // precomputed "ERR OVERLOADED retry-after-ms=<n>\n"

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

// serveConfig is the shard count the tree is served as and the
// coalescing/admission parameters.
type serveConfig struct {
	coalesce   bool
	window     time.Duration
	maxBatch   int
	shards     int           // key-space shards the seed data is built into (>= 1)
	maxPending int           // coalescer admission window (0 = unbounded)
	shed       bool          // fail fast with ERR OVERLOADED instead of blocking
	deadline   time.Duration // per-request budget for GET/PUT/DEL (0 = none)
}

// newServer wires the serving stack for cfg over srv: reads go to srv
// (through one coalescer when cfg.coalesce), and every write goes
// through dur's WAL-before-ack discipline when dur (-data-dir, wrapping
// srv) is non-nil.
func newServer(srv *hbtree.Server[uint64], dur *hbtree.Durable[uint64], cfg serveConfig) *server {
	s := &server{srv: srv, dur: dur, conns: make(map[net.Conn]struct{}), deadline: cfg.deadline, maxBatch: cfg.maxBatch}
	// A shed request was refused before queueing; the soonest the next
	// window can have room is one coalescing window away, so that is the
	// retry hint (floored at 1ms, the practical client-side resolution).
	retryMS := (cfg.window + time.Millisecond - 1) / time.Millisecond
	if retryMS < 1 {
		retryMS = 1
	}
	s.overloadReply = fmt.Sprintf("ERR OVERLOADED retry-after-ms=%d\n", retryMS)
	if cfg.coalesce {
		s.co = srv.Server.Coalesce(coalescerOptions(cfg))
	}
	return s
}

func coalescerOptions(cfg serveConfig) hbtree.CoalescerOptions {
	return hbtree.CoalescerOptions{
		MaxBatch:   cfg.maxBatch,
		Window:     cfg.window,
		MaxPending: cfg.maxPending,
		Shed:       cfg.shed,
	}
}

// acceptLoop accepts until the listener is closed. Transient accept
// errors (EMFILE, ECONNABORTED, ...) are retried with exponential
// backoff instead of killing the server; net.ErrClosed means shutdown.
func (s *server) acceptLoop(ln net.Listener) {
	backoff := 5 * time.Millisecond
	const maxBackoff = time.Second
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			log.Printf("hbserve: accept: %v (retrying in %v)", err, backoff)
			time.Sleep(backoff)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			continue
		}
		backoff = 5 * time.Millisecond
		s.track(conn)
		go func() {
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

func (s *server) track(conn net.Conn) {
	s.mu.Lock()
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
}

func (s *server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// shutdown is the graceful drain, ordered so that a SIGINT arriving
// mid-write never drops an acked operation and never hangs on a parked
// read:
//
//  1. close every open connection — no new lines are read once each
//     handler finishes its current one;
//  2. close the coalescer — a handler parked inside a coalesced GET
//     (queued behind a flush that is still running) only unblocks when
//     the coalescer delivers or fails its request, so Close must run
//     before waiting on the handlers: parked reads fail with ErrClosed
//     instead of holding the drain for as long as the engine takes.
//     Writes never touch the coalescer, so this cannot fail an acked
//     PUT/DEL;
//  3. wait for the handlers — after wg.Wait() no handler is inside a
//     Lookup or Update, so every OK the client saw was fully applied;
//  4. close the serving backend — this blocks until every per-shard
//     update pump has drained its dispatched jobs (a rebuild in flight
//     on one shard completes and publishes before the shard's snapshot
//     is released).
func (s *server) shutdown() {
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if s.co != nil {
		s.co.Close()
	}
	s.wg.Wait()
	if s.dur != nil {
		// Durable first: a final snapshot commits while the server is
		// still alive, so a graceful shutdown restarts with zero replay.
		if err := s.dur.Close(); err != nil {
			log.Printf("hbserve: durable close: %v", err)
		}
	}
	s.srv.Close()
}

// maxLine is the read buffer of a connection, and so the longest request
// line (newline included) it can take.
const maxLine = 64 << 10

// Per-connection buffers are pooled so the steady state of a busy
// listener does not allocate per accept: the read buffer, the
// bufio.Writer and the GET-run scratch are recycled across connections,
// and every handleLine call borrows a lineScratch for tokenizing and
// encoding.
var (
	writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 4<<10) }}
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, maxLine) }}
	getRunPool = sync.Pool{New: func() any { return new(getRun) }}
)

// serveConn is the one connection loop, and it is pipeline-aware: each
// turn executes every complete line already in the read buffer — runs
// of consecutive GETs as one group (serveLines), so a client that
// pipelines N GETs hands the coalescer a batch of N — writes the replies
// in request order, and flushes them before it waits for more input. So
// a drained read of N pipelined GETs costs one write, or one per 4 KiB
// of replies when they fill the writer first. It never waits for input
// while a request it has read is unanswered or a reply is unflushed: a
// closed-loop client sends nothing more until it has those replies. A
// client that sends one line at a time sees one read, one reply, one
// write per request. At EOF an unterminated last line is executed and
// its reply leaves through the deferred flush; after any other read
// error it is dropped.
func (s *server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(conn)
	w := writerPool.Get().(*bufio.Writer)
	w.Reset(conn)
	run := getRunPool.Get().(*getRun)
	run.limit = s.groupLimit()
	defer func() {
		br.Reset(nil) // drop the conn reference before pooling
		readerPool.Put(br)
		w.Reset(io.Discard)
		writerPool.Put(w)
		getRunPool.Put(run)
	}()
	defer w.Flush()
	for {
		buf, _ := br.Peek(br.Buffered())
		n, quit := s.serveLines(w, run, buf, false)
		br.Discard(n)
		if err := w.Flush(); err != nil || quit {
			return
		}
		// What is left is an incomplete line; block for more of it.
		_, err := br.Peek(br.Buffered() + 1)
		if err == nil {
			continue
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			// A line that fills the buffer cannot be parsed or skipped, so
			// the connection closes — but with a reply. Closing over unread
			// input resets the connection, which can discard the reply on
			// the client's side, so what the client already sent is drained
			// first (for a bounded time).
			io.WriteString(w, "ERR line too long\n")
			w.Flush()
			conn.SetReadDeadline(time.Now().Add(time.Second))
			io.Copy(io.Discard, conn)
			return
		}
		// At EOF the rest is the last line, sent without its newline.
		// Any other read error (a reset, or shutdown closing the
		// connection) may have cut that line short, so it is dropped
		// rather than executed: "PUT 77 12" must not stand for a
		// "PUT 77 123" that broke off.
		if err == io.EOF {
			buf, _ = br.Peek(br.Buffered())
			s.serveLines(w, run, buf, true)
		}
		return
	}
}

// groupLimit bounds a run of pipelined GETs answered as one group at one
// coalescer batch (whose size defaults to the tree's bucket size).
func (s *server) groupLimit() int {
	if s.maxBatch > 0 {
		return s.maxBatch
	}
	return s.srv.Options().BucketSize
}

// getRun is a connection's scratch for the run of consecutive GETs it is
// collecting: the keys, their results, and the reply encoder.
type getRun struct {
	limit int
	keys  []uint64
	res   []serve.Result[uint64]
	enc   lineScratch
}

// serveLines executes the complete lines of buf in order — and, when
// final, a last line without its newline — and returns how many bytes it
// consumed. Well-formed GETs are collected into a run and answered
// together; every other line, malformed GETs included, is a barrier:
// the run before it is answered, then handleLine executes it, so the
// reply stream is the one a line-at-a-time server writes and a pipelined
// PUT k, GET k still reads its own write. Replies queued ahead of a
// PUT/DEL are flushed before it runs: they should not wait out a
// durable write's group commit.
func (s *server) serveLines(w *bufio.Writer, run *getRun, buf []byte, final bool) (consumed int, quit bool) {
	for consumed < len(buf) && !quit {
		line, next := buf[consumed:], len(buf)
		if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
			line, next = line[:nl], consumed+nl+1
		} else if !final {
			break
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		tok, arg := leadToken(line)
		key, canonical := uint64(0), false
		if cmdIs(tok, "GET") {
			key, canonical = parseKey(arg)
		}
		if canonical {
			run.keys = append(run.keys, key)
			if len(run.keys) >= run.limit {
				s.answerGETs(w, run)
			}
		} else {
			s.answerGETs(w, run)
			if (cmdIs(tok, "PUT") || cmdIs(tok, "DEL")) && w.Buffered() > 0 && w.Flush() != nil {
				return consumed, true
			}
			quit = s.handleLine(w, string(line))
		}
		consumed = next
	}
	s.answerGETs(w, run)
	return consumed, quit
}

// answerGETs looks up the collected run and writes the replies in request
// order into w. With -coalesce the run is one coalescer group under one
// -deadline budget; without it each key is looked up on its own. Either
// way the replies are only buffered: they leave when serveConn flushes
// the drained read, before a PUT/DEL, or whenever the writer fills, so
// the writer's size bounds how long a long run's first reply waits.
func (s *server) answerGETs(w *bufio.Writer, run *getRun) {
	n := len(run.keys)
	if n == 0 {
		return
	}
	if s.co == nil {
		for _, k := range run.keys {
			v, ok := s.srv.Lookup(k)
			run.enc.writeGETReply(w, v, ok)
		}
	} else {
		if cap(run.res) < n {
			run.res = make([]serve.Result[uint64], n)
		}
		res := run.res[:n]
		ctx := context.Background()
		if s.deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.deadline)
			defer cancel()
		}
		s.co.LookupGroup(ctx, run.keys, res)
		for _, r := range res {
			if r.Err != nil {
				io.WriteString(w, s.errReply(r.Err))
			} else {
				run.enc.writeGETReply(w, r.Value, r.Found)
			}
		}
	}
	run.keys = run.keys[:0]
}

func isBlank(c byte) bool { return c == ' ' || c == '\t' }

// leadToken splits a request line in the read buffer at its first token:
// the bytes between leading ASCII blanks and the next one, and the rest.
func leadToken(line []byte) (tok, rest []byte) {
	for len(line) > 0 && isBlank(line[0]) {
		line = line[1:]
	}
	n := 0
	for n < len(line) && !isBlank(line[n]) {
		n++
	}
	return line[:n], line[n:]
}

// parseKey parses the argument of a canonical GET — one decimal uint64
// between ASCII blanks — without allocating. Anything it does not accept
// (other white space, a missing or second argument, overflow) goes to
// handleLine, which answers it exactly as strings.Fields and
// strconv.ParseUint decide; what it accepts, they parse to the same key.
func parseKey(arg []byte) (key uint64, ok bool) {
	for len(arg) > 0 && isBlank(arg[0]) {
		arg = arg[1:]
	}
	for len(arg) > 0 && isBlank(arg[len(arg)-1]) {
		arg = arg[:len(arg)-1]
	}
	if len(arg) == 0 || len(arg) > 20 {
		return 0, false
	}
	for _, c := range arg {
		d := uint64(c - '0')
		if c < '0' || c > '9' || key > (math.MaxUint64-d)/10 {
			return 0, false
		}
		key = key*10 + d
	}
	return key, true
}

// lineScratch holds the per-call tokenizing and encoding state of
// handleLine; pooling it keeps the GET hot path allocation-free.
type lineScratch struct {
	fields []string
	buf    []byte
}

var linePool = sync.Pool{New: func() any {
	return &lineScratch{fields: make([]string, 0, 8), buf: make([]byte, 0, 64)}
}}

// splitFields is strings.Fields into a reused slice: it appends the
// whitespace-separated fields of line to dst, allocating nothing when
// dst has capacity.
func splitFields(dst []string, line string) []string {
	i := 0
	for i < len(line) {
		r, w := utf8.DecodeRuneInString(line[i:])
		if unicode.IsSpace(r) {
			i += w
			continue
		}
		j := i
		for j < len(line) {
			r, w := utf8.DecodeRuneInString(line[j:])
			if unicode.IsSpace(r) {
				break
			}
			j += w
		}
		dst = append(dst, line[i:j])
		i = j
	}
	return dst
}

// cmdIs reports whether tok equals the ASCII-uppercase command name,
// ignoring ASCII case — the allocation-free replacement for
// strings.ToUpper dispatch.
func cmdIs[T string | []byte](tok T, upper string) bool {
	if len(tok) != len(upper) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// writeUintLine encodes prefix + decimal(v) + newline through the
// scratch buffer: the reply encoder of the GET hot path.
func (ls *lineScratch) writeUintLine(w io.Writer, prefix string, v uint64) {
	b := append(ls.buf[:0], prefix...)
	b = strconv.AppendUint(b, v, 10)
	b = append(b, '\n')
	w.Write(b)
	ls.buf = b[:0]
}

// writeGETReply encodes the answer to a GET.
func (ls *lineScratch) writeGETReply(w io.Writer, v uint64, found bool) {
	if found {
		ls.writeUintLine(w, "VALUE ", v)
	} else {
		io.WriteString(w, "NOTFOUND\n")
	}
}

// writePairLine encodes "PAIR <k> <v>\n" through the scratch buffer.
func (ls *lineScratch) writePairLine(w io.Writer, k, v uint64) {
	b := append(ls.buf[:0], "PAIR "...)
	b = strconv.AppendUint(b, k, 10)
	b = append(b, ' ')
	b = strconv.AppendUint(b, v, 10)
	b = append(b, '\n')
	w.Write(b)
	ls.buf = b[:0]
}

// handleLine executes one protocol line and writes the reply; it
// returns true when the session should end. Factored out of the
// connection loop so the fuzz target can drive the parser directly. The
// GET path — tokenize, parse, serve, encode — performs no allocations
// in steady state (pinned by TestHandleLineGETAllocFree); error paths
// may use fmt.
func (s *server) handleLine(w io.Writer, line string) (quit bool) {
	ls := linePool.Get().(*lineScratch)
	fields := splitFields(ls.fields[:0], line)
	ls.fields = fields
	defer func() {
		clear(ls.fields) // don't pin the line from the pool
		ls.fields = ls.fields[:0]
		linePool.Put(ls)
	}()
	if len(fields) == 0 {
		return false
	}
	cmd := fields[0]
	switch {
	case cmdIs(cmd, "GET"):
		if len(fields) != 2 {
			io.WriteString(w, "ERR usage: GET <key>\n")
			break
		}
		k, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			io.WriteString(w, "ERR bad key\n")
			break
		}
		var v uint64
		var ok bool
		if s.co != nil {
			if s.deadline > 0 {
				ctx, cancel := context.WithTimeout(context.Background(), s.deadline)
				v, ok, err = s.co.LookupCtx(ctx, k)
				cancel()
			} else {
				v, ok, err = s.co.Lookup(k)
			}
			if err != nil {
				io.WriteString(w, s.errReply(err))
				break
			}
		} else {
			v, ok = s.srv.Lookup(k)
		}
		ls.writeGETReply(w, v, ok)
	case cmdIs(cmd, "PUT"):
		if len(fields) != 3 {
			io.WriteString(w, "ERR usage: PUT <key> <value>\n")
			break
		}
		k, err1 := strconv.ParseUint(fields[1], 10, 64)
		v, err2 := strconv.ParseUint(fields[2], 10, 64)
		if err1 != nil || err2 != nil {
			io.WriteString(w, "ERR bad key or value\n")
			break
		}
		if !s.writable(w) {
			break
		}
		if k == sentinelKey {
			io.WriteString(w, "ERR key out of range\n")
			break
		}
		if _, err := s.update([]hbtree.Op[uint64]{{Key: k, Value: v}}); err != nil {
			s.writeUpdateErr(w, err)
			break
		}
		io.WriteString(w, "OK\n")
	case cmdIs(cmd, "DEL"):
		if len(fields) != 2 {
			io.WriteString(w, "ERR usage: DEL <key>\n")
			break
		}
		k, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			io.WriteString(w, "ERR bad key\n")
			break
		}
		if !s.writable(w) {
			break
		}
		st, err := s.update([]hbtree.Op[uint64]{{Key: k, Delete: true}})
		if err != nil {
			s.writeUpdateErr(w, err)
			break
		}
		if st.NotFound > 0 {
			io.WriteString(w, "NOTFOUND\n")
		} else {
			io.WriteString(w, "OK\n")
		}
	case cmdIs(cmd, "RANGE"):
		start, count, ok := parseRange(w, fields, "RANGE")
		if !ok {
			break
		}
		for _, p := range s.srv.RangeQuery(start, count) {
			ls.writePairLine(w, p.Key, p.Value)
		}
		io.WriteString(w, "END\n")
	case cmdIs(cmd, "SCAN"):
		start, count, ok := parseRange(w, fields, "SCAN")
		if !ok {
			break
		}
		for _, p := range s.srv.Scan(start, count) {
			ls.writePairLine(w, p.Key, p.Value)
		}
		io.WriteString(w, "END\n")
	case cmdIs(cmd, "SCANC"), cmdIs(cmd, "RANGEC"):
		name := "SCANC"
		if cmdIs(cmd, "RANGEC") {
			name = "RANGEC"
		}
		start, count, ok := parseRange(w, fields, name)
		if !ok {
			break
		}
		// The consistent variants pin a single epoch across every shard.
		var out []hbtree.Pair[uint64]
		if name == "SCANC" {
			out = s.srv.ScanConsistent(start, count)
		} else {
			out = s.srv.RangeQueryConsistent(start, count)
		}
		for _, p := range out {
			ls.writePairLine(w, p.Key, p.Value)
		}
		io.WriteString(w, "END\n")
	case cmdIs(cmd, "EPOCH"):
		rs := s.srv.RebalanceStats()
		fmt.Fprintf(w, "EPOCH %d gen=%d shards=%d\n", rs.Epoch, rs.TableGen, rs.Shards)
	case cmdIs(cmd, "REBALANCE"):
		s.handleRebalance(w, fields)
	case cmdIs(cmd, "DESCRIBE"):
		io.WriteString(w, s.srv.Describe())
		io.WriteString(w, "END\n")
	case cmdIs(cmd, "STATS"):
		st := s.srv.Stats()
		c := s.srv.DeviceCounters()
		m := s.srv.Metrics()
		shed, deadlines, folded := int64(0), m.Deadlines, int64(0)
		shedRate, admitWindow := 0.0, 0
		var flushes serve.FlushCounts
		if s.co != nil {
			flushes = s.co.Flushes()
			shed = s.co.Shed()
			deadlines += s.co.Deadlines()
			folded = s.co.Folded()
			shedRate = s.co.ShedRate()
			admitWindow = s.co.AdmitWindow()
		}
		fmt.Fprintf(w, "STATS pairs=%d height=%d iseg=%d lseg=%d h2d=%d d2h=%d kernels=%d lookups=%d batches=%d batched=%d updates=%d swaps=%d shards=%d vtime=%s gpufaults=%d retries=%d fallbacks=%d fbqueries=%d deadlines=%d shed=%d shed_rate=%.2f admit_window=%d trips=%d breaker=%s epoch=%d repairs=%d rebalances=%d probes=%d saved=%d folded=%d inplace=%d clonefb=%d clonednodes=%d clonedbytes=%d layout=%s widths=%s advice=%s flush_full=%d flush_deadline=%d flush_idle=%d flush_handoff=%d\n",
			st.NumPairs, st.Height, st.InnerBytes, st.LeafBytes,
			c.BytesH2D, c.BytesD2H, c.Kernels,
			m.Lookups, m.Batches, m.BatchedQueries, m.Updates, s.srv.Swaps(), s.srv.Shards(), m.VirtualTime,
			m.GPUFaults, m.Retries, m.FallbackBatches, m.FallbackQueries,
			deadlines, shed, shedRate, admitWindow, m.BreakerTrips, m.BreakerState,
			s.srv.Epoch(), m.Repairs, s.srv.RebalanceStats().Rebalances,
			m.NodeProbes, m.ProbesSaved, folded,
			m.InPlaceApplied, m.CloneFallbacks, m.ClonedNodes, m.ClonedBytes,
			s.srv.Options().Layout, joinInts(s.srv.LevelWidths()), joinInts(s.srv.LayoutAdvice()),
			flushes.Full, flushes.Deadline, flushes.Idle, flushes.Handoff)
	case cmdIs(cmd, "SHARDSTATS"):
		// One view: a rebalance between separate reads would leave the
		// three slices at different lengths.
		bounds, stats, metrics := s.srv.ShardStats()
		for i := range stats {
			var lo uint64
			if i > 0 {
				lo = bounds[i-1]
			}
			fmt.Fprintf(w, "SHARD %d low=%d pairs=%d height=%d lookups=%d batched=%d updates=%d swaps=%d gpufaults=%d fallbacks=%d trips=%d breaker=%s\n",
				i, lo, stats[i].NumPairs, stats[i].Height,
				metrics[i].Lookups, metrics[i].BatchedQueries, metrics[i].Updates, metrics[i].Swaps,
				metrics[i].GPUFaults, metrics[i].FallbackBatches, metrics[i].BreakerTrips, metrics[i].BreakerState)
		}
		io.WriteString(w, "END\n")
	case cmdIs(cmd, "PERSIST"):
		if s.dur == nil {
			io.WriteString(w, "ERR not durable (-data-dir)\n")
			break
		}
		pm := s.dur.Metrics()
		rs := s.dur.Recovery()
		fmt.Fprintf(w, "PERSIST appends=%d ops=%d syncs=%d walbytes=%d partitions=%d segments=%d truncated=%d snapshots=%d skips=%d lastsnap=%d barriers=%d snapfailures=%d recovered=%t snapepoch=%d tablegen=%d rshards=%d bulkloaded=%d replayed=%d replayedops=%d rbarriers=%d torntails=%d\n",
			pm.Appends, pm.AppendedOps, pm.Syncs, pm.WalBytes, pm.Partitions, pm.Segments,
			pm.Truncated, pm.Snapshots, pm.SnapshotSkips, pm.LastSnapshot, pm.Barriers, pm.SnapFailures,
			rs.Recovered, rs.SnapshotEpoch, rs.TableGen, rs.Shards, rs.BulkLoadedPairs,
			rs.ReplayedRecords, rs.ReplayedOps, rs.Barriers, rs.TornTails)
	case cmdIs(cmd, "SNAPSHOT"):
		if s.dur == nil {
			io.WriteString(w, "ERR not durable (-data-dir)\n")
			break
		}
		ep, err := s.dur.Snapshot()
		if err != nil {
			fmt.Fprintf(w, "ERR snapshot: %v\n", err)
			break
		}
		ls.writeUintLine(w, "OK epoch=", ep)
	case cmdIs(cmd, "QUIT"):
		io.WriteString(w, "BYE\n")
		return true
	default:
		io.WriteString(w, "ERR unknown command\n")
	}
	return false
}

// handleRebalance executes the REBALANCE subcommands: explicit online
// SPLIT/MERGE transitions and the STATS counters.
func (s *server) handleRebalance(w io.Writer, fields []string) {
	if len(fields) < 2 {
		io.WriteString(w, "ERR usage: REBALANCE SPLIT <i> | MERGE <i> | STATS\n")
		return
	}
	sub := fields[1]
	switch {
	case cmdIs(sub, "STATS"):
		rs := s.srv.RebalanceStats()
		fmt.Fprintf(w, "REBALANCE epoch=%d gen=%d shards=%d rebalances=%d splits=%d merges=%d last=%q\n",
			rs.Epoch, rs.TableGen, rs.Shards, rs.Rebalances, rs.Splits, rs.Merges, rs.Last)
	case cmdIs(sub, "SPLIT"), cmdIs(sub, "MERGE"):
		if len(fields) != 3 {
			fmt.Fprintf(w, "ERR usage: REBALANCE %s <shard>\n", strings.ToUpper(sub))
			return
		}
		i, err := strconv.Atoi(fields[2])
		if err != nil || i < 0 {
			io.WriteString(w, "ERR bad shard index\n")
			return
		}
		if cmdIs(sub, "SPLIT") {
			err = s.srv.SplitShard(i)
		} else {
			err = s.srv.MergeShards(i)
		}
		if err != nil {
			fmt.Fprintf(w, "ERR rebalance: %v\n", err)
			return
		}
		io.WriteString(w, "OK\n")
	default:
		io.WriteString(w, "ERR usage: REBALANCE SPLIT <i> | MERGE <i> | STATS\n")
	}
}

// errReply maps a serving-layer read error to its protocol code:
// OVERLOADED and DEADLINE invite a retry (after the hint, or with a
// larger budget), CLOSED does not.
func (s *server) errReply(err error) string {
	switch {
	case errors.Is(err, hbtree.ErrServerOverloaded):
		return s.overloadReply
	case errors.Is(err, hbtree.ErrDeadlineExceeded):
		return "ERR DEADLINE\n"
	default:
		return "ERR CLOSED\n"
	}
}

// update runs one PUT/DEL batch through the owning shard's pump under
// the per-request deadline. With -data-dir the batch flows through the
// Durable: it is WAL-appended and group-commit fsynced before it is
// applied, so the OK the client sees survives a crash.
func (s *server) update(ops []hbtree.Op[uint64]) (hbtree.UpdateStats, error) {
	ctx := context.Background()
	if s.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.deadline)
		defer cancel()
	}
	if s.dur != nil {
		return s.dur.UpdateCtx(ctx, ops, hbtree.Synchronized)
	}
	return s.srv.UpdateCtx(ctx, ops, hbtree.Synchronized)
}

// writeUpdateErr encodes a failed PUT/DEL: the typed DEADLINE code when
// the budget expired, otherwise the error text (a structural failure
// the client should see verbatim).
func (s *server) writeUpdateErr(w io.Writer, err error) {
	if errors.Is(err, hbtree.ErrDeadlineExceeded) {
		io.WriteString(w, "ERR DEADLINE\n")
		return
	}
	fmt.Fprintf(w, "ERR update: %v\n", err)
}

// writable gates PUT/DEL on the variant: only the regular organisation
// supports incremental batch updates (the implicit variant rebuilds).
func (s *server) writable(w io.Writer) bool {
	if s.srv.Options().Variant != hbtree.Regular {
		fmt.Fprintln(w, "ERR updates require the regular variant (-variant regular)")
		return false
	}
	return true
}

func parseRange(w io.Writer, fields []string, cmd string) (start uint64, count int, ok bool) {
	if len(fields) != 3 {
		fmt.Fprintf(w, "ERR usage: %s <start> <n>\n", cmd)
		return 0, 0, false
	}
	start, err1 := strconv.ParseUint(fields[1], 10, 64)
	count, err2 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || count < 0 || count > maxCount {
		fmt.Fprintf(w, "ERR bad %s\n", strings.ToLower(cmd))
		return 0, 0, false
	}
	return start, count, true
}

// setup builds the index main serves — bulk-loaded from n generated
// pairs, or opened from dopt.Dir when it is set — and collects the heap
// once before the server takes traffic. Set-up leaves garbage as large
// as the index (the seed pairs and the build's scratch), and the last
// collection during set-up marked it live: without this one, the first
// heap goal under load would be twice the index and that garbage, and
// the peak RSS follows the goal. The collection takes about a
// millisecond.
func setup(opt hbtree.Options, cfg serveConfig, n int, seed uint64, dopt hbtree.DurableOptions) (*server, error) {
	var s *server
	if dopt.Dir != "" {
		var seeded time.Duration
		start := time.Now()
		dur, err := hbtree.OpenDurable(dopt, opt, cfg.shards, func() ([]hbtree.Pair[uint64], error) {
			log.Printf("hbserve: seeding %d tuples...", n)
			t := time.Now()
			pairs := hbtree.GeneratePairs[uint64](n, seed)
			seeded = time.Since(t)
			return pairs, nil
		})
		if err != nil {
			return nil, fmt.Errorf("open durable: %w", err)
		}
		if rs := dur.Recovery(); rs.Recovered {
			log.Printf("hbserve: recovered %s: epoch=%d shards=%d bulkloaded=%d replayed=%d replayedops=%d barriers=%d torntails=%d",
				dopt.Dir, rs.SnapshotEpoch, rs.Shards, rs.BulkLoadedPairs,
				rs.ReplayedRecords, rs.ReplayedOps, rs.Barriers, rs.TornTails)
		} else {
			log.Printf("hbserve: initialised durable dir %s: generated in %v, built and persisted in %v",
				dopt.Dir, seeded.Round(time.Microsecond), (time.Since(start) - seeded).Round(time.Microsecond))
		}
		s = newServer(dur.Server(), dur, cfg)
	} else {
		log.Printf("hbserve: loading %d tuples...", n)
		start := time.Now()
		pairs := hbtree.GeneratePairs[uint64](n, seed)
		generated := time.Now()
		tree, err := hbtree.New(pairs, opt)
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		log.Printf("hbserve: generated in %v, built in %v",
			generated.Sub(start).Round(time.Microsecond), time.Since(generated).Round(time.Microsecond))
		// The server owns the tree from here: one shard adopts it, more
		// reshard and close it.
		srv, err := tree.Sharded(cfg.shards)
		if err != nil {
			return nil, fmt.Errorf("serve setup: %w", err)
		}
		s = newServer(srv, nil, cfg)
	}
	runtime.GC()
	return s, nil
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7070", "listen address")
		n        = flag.Int("n", 1<<20, "tuples to bulk-load")
		seed     = flag.Uint64("seed", 42, "dataset seed")
		variant  = flag.String("variant", "implicit", "tree organisation: implicit | regular (regular enables PUT/DEL)")
		leafFill = flag.Float64("leaf-fill", 0, "regular-variant leaf occupancy at build, in (0,1]; <1 leaves per-leaf gaps so batched updates can apply in place (0 = full leaves, every batch clones)")
		coalesce = flag.Bool("coalesce", false, "coalesce concurrent GETs into heterogeneous batch searches")
		window   = flag.Duration("coalesce-window", 100*time.Microsecond, "max time a GET waits for batch companions")
		maxBatch = flag.Int("coalesce-batch", 0, "coalesced batch size (0 = the tree's bucket size)")
		pending  = flag.Int("coalesce-pending", 0, "max in-flight GETs — one budget per server, whatever -shards is (0 = unbounded)")
		shed     = flag.Bool("coalesce-shed", false, "past -coalesce-pending, fail GETs with ERR overloaded instead of blocking")
		shards   = flag.Int("shards", 1, "key-space shards, each with its own snapshot pointer and update pump (1 = one shard)")

		pprofTo = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060)")

		dataDir   = flag.String("data-dir", "", "durable data directory (WAL + epoch-aligned snapshots); acked writes survive a crash")
		fsyncIv   = flag.Duration("fsync-interval", 2*time.Millisecond, "WAL group-commit window (0 = fsync every append inline)")
		snapEvery = flag.Duration("snapshot-every", 0, "background snapshot period (0 = snapshot only on SNAPSHOT and shutdown)")

		deadline = flag.Duration("deadline", 0, "per-request budget for GET/PUT/DEL; expiry answers ERR DEADLINE (0 = none)")
	)
	flag.Parse()

	if *pprofTo != "" {
		go func() {
			// The default mux carries the net/http/pprof handlers.
			log.Printf("hbserve: pprof on http://%s/debug/pprof/", *pprofTo)
			if err := http.ListenAndServe(*pprofTo, nil); err != nil {
				log.Printf("hbserve: pprof: %v", err)
			}
		}()
	}

	opt := hbtree.Options{}
	switch *variant {
	case "implicit":
		opt.Variant = hbtree.Implicit
	case "regular":
		opt.Variant = hbtree.Regular
	default:
		log.Fatalf("hbserve: unknown -variant %q", *variant)
	}
	if *leafFill != 0 {
		if opt.Variant != hbtree.Regular {
			log.Fatalf("hbserve: -leaf-fill requires -variant regular")
		}
		opt.LeafFill = *leafFill
	}
	if *shards < 1 {
		log.Fatalf("hbserve: -shards must be >= 1")
	}
	if *n < 1 {
		log.Fatalf("hbserve: -n must be >= 1")
	}
	if opt.Variant == hbtree.Implicit && *coalesce {
		// Tuned layouts pay off only when lookups arrive as sorted
		// shared-descent batches; per-request GETs keep the uniform
		// geometry.
		opt.Layout = hbtree.LayoutTuned
		opt.LayoutBatch = *maxBatch
	}

	cfg := serveConfig{
		coalesce:   *coalesce,
		window:     *window,
		maxBatch:   *maxBatch,
		shards:     *shards,
		maxPending: *pending,
		shed:       *shed,
		deadline:   *deadline,
	}

	s, err := setup(opt, cfg, *n, *seed, hbtree.DurableOptions{
		Dir:           *dataDir,
		FsyncInterval: *fsyncIv,
		SnapshotEvery: *snapEvery,
	})
	if err != nil {
		log.Fatalf("hbserve: %v", err)
	}
	st := s.srv.Stats()
	log.Printf("hbserve: height %d, I-segment %d bytes, L-segment %d bytes",
		st.Height, st.InnerBytes, st.LeafBytes)

	// The serving engine attached the HBTREE_FAULT injector to the shared
	// device when it was constructed above, so the bulk load ran
	// fault-free.
	if in := fault.FromEnv(); in != nil {
		fopt := in.Options()
		log.Printf("hbserve: fault injection armed by %s=%q (kernel=%g h2d=%g d2h=%g oom=%g corrupt=%g reset=%g resetops=%d seed=%d)",
			fault.EnvVar, os.Getenv(fault.EnvVar),
			fopt.Kernel, fopt.H2D, fopt.D2H, fopt.OOM, fopt.Corrupt, fopt.Reset, fopt.ResetOps, fopt.Seed)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("hbserve: listen: %v", err)
	}
	log.Printf("hbserve: listening on %s (variant=%s coalesce=%v shards=%d)", ln.Addr(), *variant, *coalesce, *shards)

	// SIGINT/SIGTERM close the listener; the accept loop then returns
	// and the graceful drain below runs.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Printf("hbserve: %v: shutting down", sig)
		ln.Close()
	}()

	s.acceptLoop(ln)
	s.shutdown()
	log.Printf("hbserve: drained, bye")
}
