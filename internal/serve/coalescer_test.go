package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/keys"
)

// newTestServer builds a small tree and wraps it; the bucket size is
// kept tiny so batch boundaries are exercised.
// waitFor polls cond until it holds, failing the test after five
// seconds: the tests below wait on coalescer state, not on sleeps.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// lookupAsync runs one blocking Lookup on its own goroutine.
func lookupAsync(c *Coalescer[uint64], key uint64) <-chan Result[uint64] {
	ch := make(chan Result[uint64], 1)
	go func() {
		v, found, err := c.Lookup(key)
		ch <- Result[uint64]{Value: v, Found: found, Err: err}
	}()
	return ch
}

// busyCoalescer returns a single-queue coalescer whose engine is busy:
// a first Lookup has found it idle, flushed its own batch and is held
// inside the backend by the shut gate. The caller opens the gate.
func busyCoalescer(t *testing.T, opt Options) (*Coalescer[uint64], *gatedBackend, []keys.Pair[uint64], <-chan Result[uint64]) {
	t.Helper()
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	be := &gatedBackend{Server: srv}
	opt.Shards = 1
	c := NewCoalescer[uint64](be, opt)
	t.Cleanup(c.Close)
	be.gate.Lock()
	first := lookupAsync(c, pairs[4].Key)
	waitFor(t, "the first flush to reach the gate", func() bool { return be.arrived.Load() == 1 })
	return c, be, pairs, first
}

func wantValue(t *testing.T, what string, res Result[uint64], want uint64) {
	t.Helper()
	if res.Err != nil || !res.Found || res.Value != want {
		t.Fatalf("%s = %+v, want value %d", what, res, want)
	}
}

// TestLoneRequestFlushesAtDeadline: a request queued behind a flush
// that does not finish must not starve waiting for it — the window
// deadline takes its batch.
func TestLoneRequestFlushesAtDeadline(t *testing.T) {
	window := 20 * time.Millisecond
	c, be, pairs, first := busyCoalescer(t, Options{MaxBatch: 64, Window: window})

	start := time.Now()
	lone := lookupAsync(c, pairs[5].Key)
	waitFor(t, "the deadline flush", func() bool { return c.Flushes().Deadline == 1 })
	if elapsed := time.Since(start); elapsed < window/2 {
		t.Fatalf("lone request flushed after %v, before the %v window could have fired", elapsed, window)
	}
	be.gate.Unlock()
	wantValue(t, "first lookup", <-first, pairs[4].Value)
	wantValue(t, "lone lookup", <-lone, pairs[5].Value)
	if c.Batches() != 2 || c.Queries() != 2 {
		t.Fatalf("batches=%d queries=%d, want 2/2", c.Batches(), c.Queries())
	}
	if f := c.Flushes(); f != (FlushCounts{Idle: 1, Deadline: 1}) {
		t.Fatalf("flushes = %+v, want one idle and one deadline", f)
	}
}

// TestLoneLookupOnIdleCoalescerFlushesAtOnce: the window is the longest
// a request waits, not the shortest — with the engine idle a lone
// Lookup flushes its own batch instead of sitting out the window.
func TestLoneLookupOnIdleCoalescerFlushesAtOnce(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 64, Window: time.Hour})
	defer c.Close()

	start := time.Now()
	v, found, err := c.Lookup(pairs[5].Key)
	wantValue(t, "lone lookup", Result[uint64]{Value: v, Found: found, Err: err}, pairs[5].Value)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("lone lookup on an idle coalescer took %v", elapsed)
	}
	if f := c.Flushes(); f != (FlushCounts{Idle: 1}) {
		t.Fatalf("flushes = %+v, want one idle flush", f)
	}
}

// TestRequestBehindRunningFlushIsHandedOff: a request that arrives while
// a flush is running is taken by that flush when it finishes — with an
// hour-long window, so the timer cannot have been what delivered it.
func TestRequestBehindRunningFlushIsHandedOff(t *testing.T) {
	c, be, pairs, first := busyCoalescer(t, Options{MaxBatch: 64, Window: time.Hour})

	second := lookupAsync(c, pairs[5].Key)
	waitFor(t, "the second request to queue", func() bool { return c.shards[0].want.Load() })
	select {
	case res := <-second:
		t.Fatalf("request behind a gated flush answered early: %+v", res)
	default:
	}
	be.gate.Unlock()
	wantValue(t, "first lookup", <-first, pairs[4].Value)
	select {
	case res := <-second:
		wantValue(t, "second lookup", res, pairs[5].Value)
	case <-time.After(5 * time.Second):
		t.Fatal("request queued behind a flush was not handed off when it finished")
	}
	if f := c.Flushes(); f != (FlushCounts{Idle: 1, Handoff: 1}) {
		t.Fatalf("flushes = %+v, want one idle and one handoff", f)
	}
}

// TestFullBatchFlushesImmediately: when MaxBatch requests are pending
// the batch must flush without waiting for the (deliberately enormous)
// window. Shards is pinned to 1 so the submissions deterministically
// fill one shard's batch.
func TestFullBatchFlushesImmediately(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	const maxBatch = 8
	c := NewCoalescer(srv, Options{MaxBatch: maxBatch, Window: time.Hour, Shards: 1})
	defer c.Close()

	chans := make([]<-chan Result[uint64], maxBatch)
	for i := range chans {
		chans[i] = c.Submit(pairs[i].Key)
	}
	deadline := time.After(10 * time.Second)
	for i, ch := range chans {
		select {
		case res := <-ch:
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			if !res.Found || res.Value != pairs[i].Value {
				t.Fatalf("request %d = (%d, %v), want (%d, true)", i, res.Value, res.Found, pairs[i].Value)
			}
		case <-deadline:
			t.Fatalf("request %d still pending: full batch did not flush before the window", i)
		}
	}
}

// TestCloseFailsPendingRequests: requests queued but not yet flushed
// when Close runs receive ErrClosed instead of hanging, and later
// submissions fail fast.
func TestCloseFailsPendingRequests(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 64, Window: time.Hour})

	const pending = 3
	chans := make([]<-chan Result[uint64], pending)
	for i := range chans {
		chans[i] = c.Submit(pairs[i].Key)
	}
	// Give the flusher a moment to pull the requests into its batch so
	// the close-with-collected-batch path is exercised too.
	time.Sleep(5 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	for i, ch := range chans {
		select {
		case res := <-ch:
			if !errors.Is(res.Err, ErrClosed) {
				t.Fatalf("pending request %d: err = %v, want ErrClosed", i, res.Err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("pending request %d hung across Close", i)
		}
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung")
	}
	if _, _, err := c.Lookup(pairs[0].Key); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-Close lookup err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	c.Close()
}

// TestCoalescerCorrectnessUnderLoad drives rounds of eight blocking
// clients against a backend held shut: whichever finds the engine idle
// flushes and parks at the gate, the rest pile up behind it and leave
// together once it opens. Every result is verified, and coalescing is
// checked by count (more queries than batches), not by timing.
func TestCoalescerCorrectnessUnderLoad(t *testing.T) {
	srv, pairs := newTestServer(t, core.Regular, 1<<12)
	be := &gatedBackend{Server: srv}
	c := NewCoalescer[uint64](be, Options{MaxBatch: 64, Window: time.Hour, Shards: 1})
	defer c.Close()

	const clients = 8
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	var replies [clients]<-chan Result[uint64]
	for r := 0; r < rounds; r++ {
		// Keys are distinct, so a flush folds nothing and the backend's
		// held count is the requests inside gated flushes.
		round := pairs[r*clients:]
		be.gate.Lock()
		for w := range replies {
			replies[w] = lookupAsync(c, round[w].Key)
		}
		waitFor(t, "every client to sit in a gated flush or behind one", func() bool {
			return int(be.held.Load())+forming(c) == (r+1)*clients
		})
		be.gate.Unlock()
		for w, reply := range replies {
			wantValue(t, "coalesced lookup", <-reply, round[w].Value)
		}
	}
	total := int64(clients * rounds)
	if c.Queries() != total {
		t.Fatalf("served %d queries, want %d", c.Queries(), total)
	}
	if c.Batches() >= total {
		t.Fatalf("no coalescing: %d batches for %d queries", c.Batches(), total)
	}
}

// TestMissingKeyThroughCoalescer: absent keys come back found=false.
func TestMissingKeyThroughCoalescer(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 4, Window: time.Millisecond})
	defer c.Close()
	// Dataset keys are uniform uint64; a small odd key is (nearly
	// surely) absent — verify against the source of truth first.
	probe := uint64(3)
	if _, ok := srv.Lookup(probe); ok {
		t.Skip("improbable: probe key present in dataset")
	}
	_, found, err := c.Lookup(probe)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatalf("absent key reported found")
	}
	_ = pairs
}

// TestAdmissionShed: past MaxPending, shed mode fails fast with
// ErrOverloaded without queueing — however many queues the coalescer
// stripes over, since the window belongs to the coalescer.
func TestAdmissionShed(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	for _, shards := range []int{1, 4} {
		// A window that never fires on its own, batches of 4: the first 2
		// submissions sit in forming batches holding both tokens.
		c := NewCoalescer(srv, Options{MaxBatch: 4, Window: time.Hour, Shards: shards, MaxPending: 2, Shed: true})

		r1 := c.Submit(pairs[0].Key)
		r2 := c.Submit(pairs[1].Key)
		res := <-c.Submit(pairs[2].Key)
		if !errors.Is(res.Err, ErrOverloaded) {
			t.Fatalf("shards=%d: third submit err = %v, want ErrOverloaded", shards, res.Err)
		}
		// Blocking Lookup sheds the same way.
		if _, _, err := c.Lookup(pairs[3].Key); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("shards=%d: Lookup err = %v, want ErrOverloaded", shards, err)
		}
		if c.Shed() != 2 || c.ShedRate() <= 0 {
			t.Fatalf("shards=%d: Shed = %d, ShedRate = %v right after two sheds", shards, c.Shed(), c.ShedRate())
		}
		// The two admitted requests are still pending (tokens exhausted
		// below MaxBatch, window never fires); Close fails them with
		// ErrClosed. Token recovery during live serving is covered by
		// TestAdmissionShedRecovers.
		c.Close()
		for i, r := range []<-chan Result[uint64]{r1, r2} {
			if res := <-r; !errors.Is(res.Err, ErrClosed) {
				t.Fatalf("shards=%d: pending %d after Close: %+v", shards, i, res)
			}
		}
	}
}

// TestAdmissionShedRecovers: tokens return to the window when a batch
// flushes, so shedding stops once load drains.
func TestAdmissionShedRecovers(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	// MaxBatch == MaxPending == 1: every accepted request flushes inline
	// and releases its token before Lookup returns.
	c := NewCoalescer(srv, Options{MaxBatch: 1, Window: time.Hour, Shards: 1, MaxPending: 1, Shed: true})
	defer c.Close()
	for i := 0; i < 64; i++ {
		p := pairs[i%len(pairs)]
		v, found, err := c.Lookup(p.Key)
		if err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
		if !found || v != p.Value {
			t.Fatalf("lookup %d = (%d, %v)", i, v, found)
		}
	}
}

// TestAdmissionBackpressure: without Shed, a submitter past the bound
// blocks until the window drains, then completes normally.
func TestAdmissionBackpressure(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	// MaxBatch 2, MaxPending 2: two submissions fill the batch and flush
	// inline; a third issued while the first two are still undelivered
	// must wait, not fail. Batches here flush synchronously, so drive
	// the block from a goroutine against a long-window lone request.
	c := NewCoalescer(srv, Options{MaxBatch: 2, Window: 30 * time.Millisecond, Shards: 1, MaxPending: 1})
	defer c.Close()

	// First request takes the only token and waits for the deadline.
	r1 := c.Submit(pairs[0].Key)
	// Second submission must block in admission until the deadline
	// flush delivers r1 and releases the token — then proceed.
	start := time.Now()
	v, found, err := c.Lookup(pairs[1].Key)
	blocked := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !found || v != pairs[1].Value {
		t.Fatalf("backpressured lookup = (%d, %v)", v, found)
	}
	if blocked < 10*time.Millisecond {
		t.Fatalf("second lookup returned in %v; expected to block ~30ms behind the window", blocked)
	}
	if res := <-r1; res.Err != nil || !res.Found {
		t.Fatalf("first result = %+v", res)
	}
}

// gatedBackend is a Server whose flushes wait on a gate the test holds
// shut to model a stalled backend.
type gatedBackend struct {
	*Server[uint64]
	gate    sync.RWMutex
	arrived atomic.Int32 // flushes that have reached the gate
	held    atomic.Int32 // keys those flushes carried
}

func (b *gatedBackend) LookupBatchSortedInto(q, v []uint64, f []bool) (core.SearchStats, error) {
	b.held.Add(int32(len(q)))
	b.arrived.Add(1)
	b.gate.RLock()
	defer b.gate.RUnlock()
	return b.Server.LookupBatchSortedInto(q, v, f)
}

// forming counts the requests sitting in c's forming batches.
func forming(c *Coalescer[uint64]) int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.cur.keys)
		sh.mu.Unlock()
	}
	return n
}

// TestAdmissionBoundsTailLatency is the admission-control acceptance
// criterion at the ROADMAP's pipeline depth: 8 clients × depth 512 =
// 4096 concurrent lookups of distinct keys hit a backend that has
// stalled — a gate in front of the server is held shut for the whole
// burst, the scenario that actually creates a deep in-flight window,
// since admission tokens only return when a flush delivers. Unbounded,
// every request queues behind the stall: all 4096 sit in gated flushes
// or forming batches and none is answered before the gate opens, so
// every one waits out the stall. With MaxPending 32 and Shed on, exactly
// 32 are admitted and the other 4064 fail with ErrOverloaded while the
// gate is still shut, so no more than 32 requests (0.8 % of the burst)
// can wait out the stall — the tail is bounded by count, whatever the
// stall lasts. Backpressure mode bounds the same window by parking the
// excess in the caller (TestAdmissionBackpressure).
func TestAdmissionBoundsTailLatency(t *testing.T) {
	const (
		clients = 8
		depth   = 512
		burst   = clients * depth
	)
	srv, pairs := newTestServer(t, core.Implicit, burst)

	run := func(t *testing.T, opt Options, admitted int) {
		be := &gatedBackend{Server: srv}
		c := NewCoalescer[uint64](be, opt)
		defer c.Close()
		// Stall the backend: flushes block on the gate, so no result is
		// delivered (and no admission token released) until it opens.
		be.gate.Lock()
		open := sync.OnceFunc(be.gate.Unlock)
		defer open()
		res := make([]Result[uint64], burst)
		var shed, answered atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, found, err := c.Lookup(pairs[i].Key)
				res[i] = Result[uint64]{Value: v, Found: found, Err: err}
				if errors.Is(err, ErrOverloaded) {
					shed.Add(1)
				} else {
					answered.Add(1)
				}
			}(i)
		}
		// Keys are distinct, so a flush folds nothing and held counts the
		// requests inside gated flushes.
		waitFor(t, "every request to be shed or held behind the gate", func() bool {
			return shed.Load() == int64(burst-admitted) && int(be.held.Load())+forming(c) == admitted
		})
		if n := answered.Load(); n != 0 {
			t.Fatalf("%d lookups answered while the backend was stalled", n)
		}
		open()
		wg.Wait()
		if got := c.Shed(); got != int64(burst-admitted) || shed.Load() != got {
			t.Fatalf("Shed() = %d, lookups shed %d, want %d", got, shed.Load(), burst-admitted)
		}
		for i, r := range res {
			if !errors.Is(r.Err, ErrOverloaded) {
				wantValue(t, "admitted lookup", r, pairs[i].Value)
			}
		}
	}

	t.Run("unbounded", func(t *testing.T) {
		run(t, Options{MaxBatch: 64, Window: time.Hour, Shards: 1}, burst)
	})
	t.Run("bounded", func(t *testing.T) {
		run(t, Options{MaxBatch: 64, Window: time.Hour, Shards: 1, MaxPending: 32, Shed: true}, 32)
	})
}

// TestAdmissionBackpressureUnblocksOnClose: a submitter blocked in
// admission is released by Close with ErrClosed instead of hanging.
func TestAdmissionBackpressureUnblocksOnClose(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 4, Window: time.Hour, Shards: 1, MaxPending: 1})

	r1 := c.Submit(pairs[0].Key) // holds the only token, never flushes
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Lookup(pairs[1].Key)
		errc <- err
	}()
	// Give the goroutine time to block in admission, then close.
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked lookup err = %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked submitter not released by Close")
	}
	if res := <-r1; !errors.Is(res.Err, ErrClosed) {
		t.Fatalf("pending result = %+v, want ErrClosed", res)
	}
}

// TestShedRateWindowed: the tracker reports events/sec over the
// trailing second and forgets them afterwards.
func TestShedRateWindowed(t *testing.T) {
	var r rateTracker
	t0 := int64(10 * time.Second)
	for i := 0; i < 10; i++ {
		r.note(t0 + int64(i)*int64(50*time.Millisecond))
	}
	if got := r.perSecond(t0 + int64(500*time.Millisecond)); got != 10 {
		t.Fatalf("perSecond inside window = %v, want 10", got)
	}
	if got := r.perSecond(t0 + int64(3*time.Second)); got != 0 {
		t.Fatalf("perSecond after decay = %v, want 0", got)
	}
}

// slowBackend is a deterministic-capacity fake: every flush holds a
// shared mutex for per — one "device" serving batches serially — so the
// backend's capacity is exactly MaxBatch/per regardless of host speed.
// Lookups echo the key as the value.
type slowBackend struct {
	mu  sync.Mutex
	per time.Duration
}

func (b *slowBackend) LookupBatchSortedInto(q, v []uint64, f []bool) (core.SearchStats, error) {
	b.mu.Lock()
	time.Sleep(b.per)
	b.mu.Unlock()
	for i := range q {
		v[i], f[i] = q[i], true
	}
	return core.SearchStats{Queries: len(q)}, nil
}

func (b *slowBackend) Options() core.Options { return core.Options{BucketSize: 64} }
func (b *slowBackend) Degraded() bool        { return false }

// TestShedDrainShutdownMidLoad: closing a shed-mode coalescer while 32
// clients keep lookups queued behind a slow backend, holding admission
// tokens, must not deadlock — every in-flight request resolves (result,
// ErrOverloaded or ErrClosed) and Close returns.
func TestShedDrainShutdownMidLoad(t *testing.T) {
	be := &slowBackend{per: 5 * time.Millisecond}
	co := NewCoalescer[uint64](be, Options{
		Shards: 1, MaxBatch: 8, Window: 200 * time.Microsecond,
		MaxPending: 256, Shed: true,
	})
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := uint64(c)
			for {
				_, _, err := co.Lookup(k)
				k += 32
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil && !errors.Is(err, ErrOverloaded) {
					t.Errorf("lookup: %v", err)
					return
				}
			}
		}(c)
	}
	time.Sleep(150 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		co.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked under load")
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("clients did not unwind after Close")
	}
}
