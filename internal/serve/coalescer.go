package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hbtree/internal/keys"
)

// ErrClosed is returned for requests that a closed Coalescer can no
// longer serve: submissions after Close, and requests still pending
// when Close ran.
var ErrClosed = errors.New("serve: coalescer closed")

// ErrOverloaded is returned for requests shed by admission control: the
// coalescer's in-flight window is at Options.MaxPending and Options.Shed
// selected fail-fast over backpressure. The request was never queued;
// the caller may retry or degrade.
var ErrOverloaded = errors.New("serve: coalescer overloaded")

// DefaultWindow is the default coalescing deadline: a lone request
// waits at most this long for companions before its batch is flushed.
const DefaultWindow = 100 * time.Microsecond

// Options configures a Coalescer.
type Options struct {
	// MaxBatch flushes a shard's batch as soon as it holds this many
	// requests; zero selects the tree's bucket size, so a full batch is
	// exactly one bucket of the heterogeneous search.
	MaxBatch int

	// Window is the deadline: the first request of a batch waits at
	// most this long before the batch is flushed regardless of size.
	// Zero selects DefaultWindow.
	Window time.Duration

	// Shards is the number of independent pending queues; submissions
	// are spread across them so concurrent producers do not serialise
	// on one lock, and each shard flushes on its own size-or-deadline
	// window. Zero selects GOMAXPROCS. Use 1 to reproduce the single-
	// queue discipline (deterministic batch formation).
	Shards int

	// MaxPending bounds the coalescer's in-flight window: the number of
	// accepted requests whose result has not yet been delivered, whether
	// still in a forming batch or inside a flush, summed over every
	// pending queue — one budget per coalescer, whatever Shards is. Zero
	// leaves the window unbounded, where a deep client pipeline makes
	// tail latency a function of queue depth. With a bound, latency is
	// capped at roughly (MaxPending/MaxBatch + 1) flush spans.
	MaxPending int

	// Shed selects the response at the MaxPending bound: false (the
	// default) blocks the submitter until the window drains —
	// backpressure, the right mode for cooperating in-process clients;
	// true fails the excess request immediately with ErrOverloaded so
	// an external caller can retry against another replica or degrade.
	Shed bool

	// DegradedPending is the fault-aware admission window: while the
	// backend reports Degraded (breaker open, batches answered by the
	// slower CPU fallback), the coalescer admits only this many
	// undelivered requests and fails the excess fast — regardless
	// of Shed, since backpressure against a degraded backend just builds
	// the queue the bound exists to prevent. Zero selects MaxPending/2
	// (minimum 1); ignored when MaxPending is zero (an unbounded
	// coalescer has no window to shrink). The full MaxPending window is
	// restored the moment the backend recovers. Under adaptive admission
	// (TargetP99 set) the degraded bound is a clamp on the controller's
	// window, not a second mechanism: the effective window is
	// min(adaptive, DegradedPending) while the backend is degraded.
	DegradedPending int

	// TargetP99, when positive, turns on adaptive admission (DESIGN
	// §11): a closed-loop controller measures per-flush spans (first
	// enqueue to result delivery) and resizes the admission window
	// online — AIMD, clamped to [MinPending, MaxPending] — to
	// hold this latency target. Adaptive admission always sheds at the
	// window (fail-fast with a typed OverloadError carrying a
	// retry-after hint) regardless of Shed: backpressure would hide the
	// very signal the controller regulates. Zero (the default) keeps
	// the static MaxPending/Shed behaviour exactly as before. When set
	// with MaxPending zero, MaxPending defaults to 4096.
	TargetP99 time.Duration

	// MinPending is the adaptive window's floor: the controller never
	// shrinks below it, so a transient latency spike cannot collapse
	// admission entirely. Zero selects MaxPending/64 (minimum 1).
	// Ignored without TargetP99.
	MinPending int

	// FlushStall, when positive, sleeps this long under a
	// coalescer-wide mutex before every flush's backend call — a
	// serialized stall modelling device occupancy, which gives the
	// coalescer a deterministic capacity of MaxBatch/FlushStall
	// requests per second regardless of host speed. Benchmark and test
	// hook only; zero (the default) is a no-op.
	FlushStall time.Duration
}

// Result is the outcome of one coalesced lookup.
type Result[K keys.Key] struct {
	Value K
	Found bool
	Err   error
}

// pending is one shard's forming batch plus the result staging its
// flush writes into. Instances are pooled: a flusher returns its batch
// to the pool once every caller's result has been delivered.
type pending[K keys.Key] struct {
	keys    []K
	replies []chan Result[K]
	values  []K
	found   []bool

	// Flush staging: each sorted slot's submission position and the
	// sorted-slot-to-unique-slot map after duplicate folding. Both
	// pooled with the batch, so the flush allocates nothing. The
	// keys themselves are sorted in place — the batch is detached from
	// its shard before flushing and the submission order is recoverable
	// through perm, so no second key array is needed.
	perm []int32
	uref []int32

	// t0 is the batch's first-enqueue time, armed only under adaptive
	// admission: the flush span time.Since(t0) is the latency the
	// batch's oldest request observed, the controller's input signal.
	t0 time.Time
}

// shard is one independent pending queue with its own deadline timer.
// The timer is created once and re-armed on each batch's first request
// (Go 1.23 timer semantics make Reset/Stop race-free without channel
// draining); a per-shard goroutine waits on it and flushes
// deadline-expired batches.
type shard[K keys.Key] struct {
	mu     sync.Mutex
	cur    *pending[K] // nil after close
	timer  *time.Timer
	closed bool
}

// Coalescer collects point lookups arriving from many goroutines into
// batches and serves each batch with one LookupBatchSortedInto call —
// the request-coalescing discipline that recovers the paper's batched
// throughput from a point-request workload. Submissions are spread
// round-robin over independent shards; a shard's batch is flushed when
// it reaches MaxBatch requests (inline, by the submitter that filled
// it) or when its oldest request has waited for the Window deadline
// (by the shard's flusher goroutine), whichever comes first, so a lone
// request is never starved.
//
// With Options.MaxPending set, the coalescer admits at most that many
// undelivered requests across all shards; excess submissions block for
// backpressure or, with Options.Shed, fail fast with ErrOverloaded —
// the admission control that keeps tail latency bounded under deep
// client pipelines.
//
// Close stops intake: later submissions fail fast with ErrClosed, and
// requests still pending when Close runs are failed with ErrClosed
// rather than left hanging. A batch already being flushed completes
// normally.
type Coalescer[K keys.Key] struct {
	be  Backend[K]
	opt Options

	// degPending is the resolved degraded-mode admission bound (0 when
	// MaxPending is unbounded).
	degPending int

	shards []shard[K]
	next   atomic.Uint64 // round-robin shard cursor

	// slots is the admission window shared by every shard: capacity
	// MaxPending, one token held per accepted-but-undelivered request.
	// nil when unbounded. Tokens are acquired before the shard lock (a
	// blocked submitter must not hold it) and released after result
	// delivery.
	slots chan struct{}

	batchPool sync.Pool // *pending[K]
	replyPool sync.Pool // chan Result[K], capacity 1

	done      chan struct{} // closed when Close runs; stops the flushers
	closeOnce sync.Once
	wg        sync.WaitGroup

	batches   atomic.Int64 // batches flushed
	queries   atomic.Int64 // requests served through batches
	folded    atomic.Int64 // duplicate keys folded out of flushes
	shed      atomic.Int64 // requests refused with ErrOverloaded
	degShed   atomic.Int64 // of those, refused by fault-aware admission
	deadlines atomic.Int64 // requests abandoned with ErrDeadlineExceeded

	// Adaptive admission state (DESIGN §11). ctl is nil when TargetP99
	// is unset, which keeps the static admission path untouched.
	// overload caches the current typed shed error so the shed path
	// hands out an immutable value instead of allocating per request;
	// shedRate is the windowed sheds/sec tracker behind ShedRate().
	ctl      *controller
	overload atomic.Pointer[OverloadError]
	shedRate rateTracker

	// stallMu serializes Options.FlushStall sleeps across all shards so
	// the stall models one shared device, not one per queue.
	stallMu sync.Mutex
}

// NewCoalescer starts a coalescer over a backend — a Server or a
// ShardedServer's coalescing adapter. The caller must Close it to stop
// the per-shard flusher goroutines.
func NewCoalescer[K keys.Key](be Backend[K], opt Options) *Coalescer[K] {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = be.Options().BucketSize
	}
	if opt.Window <= 0 {
		opt.Window = DefaultWindow
	}
	if opt.Shards <= 0 {
		opt.Shards = runtime.GOMAXPROCS(0)
	}
	if opt.TargetP99 > 0 {
		// Adaptive admission needs a bounded window to resize.
		if opt.MaxPending <= 0 {
			opt.MaxPending = 4096
		}
		if opt.MinPending <= 0 {
			opt.MinPending = opt.MaxPending / 64
		}
		if opt.MinPending < 1 {
			opt.MinPending = 1
		}
		if opt.MinPending > opt.MaxPending {
			opt.MinPending = opt.MaxPending
		}
	}
	if opt.MaxPending > 0 {
		if opt.DegradedPending <= 0 {
			opt.DegradedPending = opt.MaxPending / 2
		}
		if opt.DegradedPending < 1 {
			opt.DegradedPending = 1
		}
	}
	c := &Coalescer[K]{
		be:         be,
		opt:        opt,
		degPending: opt.DegradedPending,
		shards:     make([]shard[K], opt.Shards),
		done:       make(chan struct{}),
	}
	if opt.TargetP99 > 0 {
		c.ctl = newController(opt)
	}
	// The cached shed error: static coalescers hint one coalescing
	// window (the pre-adaptive retry advice); adaptive steps refresh it
	// with the live drain estimate.
	ra := opt.Window
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	c.overload.Store(&OverloadError{RetryAfter: ra})
	c.batchPool.New = func() any {
		p := &pending[K]{
			keys:    make([]K, 0, opt.MaxBatch),
			replies: make([]chan Result[K], 0, opt.MaxBatch),
			values:  make([]K, opt.MaxBatch),
			found:   make([]bool, opt.MaxBatch),
			perm:    make([]int32, opt.MaxBatch),
			uref:    make([]int32, opt.MaxBatch),
		}
		return p
	}
	c.replyPool.New = func() any { return make(chan Result[K], 1) }
	if opt.MaxPending > 0 {
		c.slots = make(chan struct{}, opt.MaxPending)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cur = c.getBatch()
		sh.timer = time.NewTimer(time.Hour)
		sh.timer.Stop()
		c.wg.Add(1)
		go c.flusher(sh)
	}
	return c
}

func (c *Coalescer[K]) getBatch() *pending[K] {
	p := c.batchPool.Get().(*pending[K])
	p.keys = p.keys[:0]
	p.replies = p.replies[:0]
	p.t0 = time.Time{}
	return p
}

// Submit enqueues one lookup and returns the channel its Result will be
// delivered on. The channel receives exactly one Result; after Close it
// receives ErrClosed, and past the admission bound in shed mode it
// receives ErrOverloaded.
func (c *Coalescer[K]) Submit(key K) <-chan Result[K] {
	reply := make(chan Result[K], 1)
	if err := c.submit(key, reply); err != nil {
		reply <- Result[K]{Err: err}
	}
	return reply
}

// Lookup submits one query and blocks for its coalesced result. The
// reply cell is pooled, so the steady-state path allocates nothing.
func (c *Coalescer[K]) Lookup(key K) (K, bool, error) {
	reply := c.replyPool.Get().(chan Result[K])
	if err := c.submit(key, reply); err != nil {
		c.replyPool.Put(reply)
		var zero K
		return zero, false, err
	}
	res := <-reply
	c.replyPool.Put(reply)
	return res.Value, res.Found, res.Err
}

// LookupCtx is Lookup with a caller deadline covering both admission
// (a backpressure wait at the MaxPending bound) and the parked wait for
// the coalesced result. An expired request returns ErrDeadlineExceeded
// and is abandoned: its slot in the forming batch still flushes, but
// nobody waits on the reply. Abandoned reply cells are not pooled (the
// late flush still writes into them, cap 1 makes that non-blocking), so
// this path allocates — use plain Lookup when no deadline is needed.
func (c *Coalescer[K]) LookupCtx(ctx context.Context, key K) (K, bool, error) {
	if ctx.Done() == nil {
		return c.Lookup(key)
	}
	var zero K
	reply := make(chan Result[K], 1)
	if err := c.submitCtx(ctx, key, reply); err != nil {
		return zero, false, err
	}
	select {
	case res := <-reply:
		return res.Value, res.Found, res.Err
	case <-ctx.Done():
		c.deadlines.Add(1)
		return zero, false, ErrDeadlineExceeded
	}
}

// submit appends the request to a shard's forming batch, arming the
// shard's deadline timer on the batch's first request and flushing
// inline when the batch fills. A non-nil error (ErrClosed,
// ErrOverloaded) means the request was not queued and nothing will be
// delivered on reply.
func (c *Coalescer[K]) submit(key K, reply chan Result[K]) error {
	return c.submitCtx(context.Background(), key, reply)
}

// admit takes one token from the coalescer's admission pool before the
// request touches a shard, so a blocked submitter never holds a lock the
// flushers need. The effective window is the controller's live value
// under adaptive admission and MaxPending otherwise, clamped to
// DegradedPending while the backend is degraded (the cheap length check
// runs first so the healthy path never pays for the breaker-state
// load). Past the window the request fails fast with the cached typed
// error when admission is adaptive (backpressure would hide the latency
// signal the controller regulates), Shed is set, or the degraded clamp
// engaged (queueing against the slower fallback only builds the backlog
// the bound exists to prevent); otherwise the submitter blocks until a
// token frees, the coalescer closes or ctx expires (context.Background's
// nil Done channel makes that case free for undeadlined callers). The
// length check is soft — a racing submitter can land one past it — but
// the token channel's MaxPending capacity stays the hard cap.
func (c *Coalescer[K]) admit(ctx context.Context) error {
	w := c.AdmitWindow()
	eff, n := w, len(c.slots)
	clamped := n >= c.degPending && c.be.Degraded()
	if clamped {
		eff = min(eff, c.degPending)
	}
	if c.ctl != nil || c.opt.Shed || clamped {
		if n < eff {
			select {
			case c.slots <- struct{}{}:
				return nil
			default:
			}
		}
		c.shed.Add(1)
		if clamped && n < w {
			c.degShed.Add(1)
		}
		c.noteShed()
		return c.overloadErr()
	}
	select {
	case c.slots <- struct{}{}:
		return nil
	case <-c.done:
		return ErrClosed
	case <-ctx.Done():
		c.deadlines.Add(1)
		return ErrDeadlineExceeded
	}
}

// submitCtx is submit with a deadline on the backpressure wait: a
// submitter blocked at the MaxPending bound gives up with
// ErrDeadlineExceeded when ctx expires.
func (c *Coalescer[K]) submitCtx(ctx context.Context, key K, reply chan Result[K]) error {
	if c.slots != nil {
		if err := c.admit(ctx); err != nil {
			return err
		}
	}
	sh := &c.shards[c.next.Add(1)%uint64(len(c.shards))]
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		c.releaseSlots(1)
		return ErrClosed
	}
	p := sh.cur
	p.keys = append(p.keys, key)
	p.replies = append(p.replies, reply)
	if len(p.keys) >= c.opt.MaxBatch {
		// The submitter that filled the batch flushes it inline: the
		// shard gets a fresh batch and the lock is dropped before the
		// heterogeneous search runs.
		sh.cur = c.getBatch()
		sh.timer.Stop()
		sh.mu.Unlock()
		c.flush(p)
		return nil
	}
	if len(p.keys) == 1 {
		if c.ctl != nil {
			p.t0 = time.Now()
		}
		sh.timer.Reset(c.opt.Window)
	}
	sh.mu.Unlock()
	return nil
}

// flusher is a shard's deadline goroutine: it waits for the shard's
// reused timer to fire and flushes whatever has accumulated. An empty
// or already-stolen batch is a benign wakeup.
func (c *Coalescer[K]) flusher(sh *shard[K]) {
	defer c.wg.Done()
	for {
		select {
		case <-sh.timer.C:
			sh.mu.Lock()
			p := sh.cur
			if sh.closed || len(p.keys) == 0 {
				sh.mu.Unlock()
				continue
			}
			sh.cur = c.getBatch()
			sh.mu.Unlock()
			c.flush(p)
		case <-c.done:
			return
		}
	}
}

// flush serves one batch with the allocation-free batch search and
// distributes each caller's result, then recycles the batch and
// releases its admission window tokens.
//
// The flush presorts the keys (tracking each key's submission
// position), folds exact duplicates into one batch slot, and hands the
// backend a sorted duplicate-free batch — which the shared-descent
// search resolves at one node probe per distinct node per level, and
// which decomposes into one contiguous run per shard on a sharded
// backend. Each unique result fans back out to every waiter that
// submitted that key.
func (c *Coalescer[K]) flush(p *pending[K]) {
	n := len(p.keys)
	t0 := p.t0
	if c.opt.FlushStall > 0 {
		// The serialized stall models device occupancy: one flush at a
		// time holds the "device" for FlushStall, so the coalescer's
		// capacity is exactly MaxBatch/FlushStall regardless of host.
		c.stallMu.Lock()
		time.Sleep(c.opt.FlushStall)
		c.stallMu.Unlock()
	}
	values, found := p.values[:n], p.found[:n]
	skeys, perm, uref := p.keys, p.perm[:n], p.uref[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	keys.SortWithPerm(skeys, perm)
	u := 0
	var last K
	for i := 0; i < n; i++ {
		k := skeys[i]
		if u > 0 && k == last {
			uref[i] = int32(u - 1)
			continue
		}
		skeys[u] = k
		uref[i] = int32(u)
		last = k
		u++
	}

	_, err := c.be.LookupBatchSortedInto(skeys[:u], values[:u], found[:u])
	if err != nil {
		c.fail(p, err)
		return
	}
	for i := 0; i < n; i++ {
		j := uref[i]
		p.replies[perm[i]] <- Result[K]{Value: values[j], Found: found[j]}
	}
	c.batches.Add(1)
	c.queries.Add(int64(n))
	c.folded.Add(int64(n - u))
	c.releaseSlots(n)
	c.batchPool.Put(p)
	c.noteFlushSpan(t0)
}

// fail delivers err to every caller in the batch and recycles it. The
// span still feeds the controller: a failed flush occupied the pipeline
// just the same.
func (c *Coalescer[K]) fail(p *pending[K], err error) {
	t0 := p.t0
	for _, reply := range p.replies {
		reply <- Result[K]{Err: err}
	}
	c.releaseSlots(len(p.replies))
	c.batchPool.Put(p)
	c.noteFlushSpan(t0)
}

// releaseSlots returns n admission tokens to the window once their
// requests' results have been delivered.
func (c *Coalescer[K]) releaseSlots(n int) {
	if c.slots == nil {
		return
	}
	for i := 0; i < n; i++ {
		<-c.slots
	}
}

// Close stops intake, fails all pending requests with ErrClosed and
// waits for the flushers to exit. A batch already being flushed
// completes normally. Close is idempotent.
func (c *Coalescer[K]) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			sh.closed = true
			p := sh.cur
			sh.cur = nil
			sh.timer.Stop()
			sh.mu.Unlock()
			if p != nil && len(p.keys) > 0 {
				c.fail(p, ErrClosed)
			}
		}
	})
	c.wg.Wait()
}

// Batches returns the number of flushed batches.
func (c *Coalescer[K]) Batches() int64 { return c.batches.Load() }

// Queries returns the number of requests served through batches.
func (c *Coalescer[K]) Queries() int64 { return c.queries.Load() }

// Folded returns how many duplicate keys were folded into an already-
// occupied batch slot by flushes: identical keys in one window
// cost one descent, and the single result fans out to every waiter.
func (c *Coalescer[K]) Folded() int64 { return c.folded.Load() }

// Shed returns how many requests were refused with ErrOverloaded,
// including those refused by fault-aware admission.
func (c *Coalescer[K]) Shed() int64 { return c.shed.Load() }

// DegradedShed returns how many requests were refused because the
// backend was degraded and the shrunken admission window was full.
func (c *Coalescer[K]) DegradedShed() int64 { return c.degShed.Load() }

// Deadlines returns how many requests were abandoned with
// ErrDeadlineExceeded.
func (c *Coalescer[K]) Deadlines() int64 { return c.deadlines.Load() }
