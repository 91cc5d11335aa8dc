package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/keys"
)

// ErrClosed is returned for requests that a closed Coalescer can no
// longer serve: submissions after Close, and requests still pending
// when Close ran.
var ErrClosed = errors.New("serve: coalescer closed")

// ErrOverloaded is returned, as this very value, for requests shed by
// admission control: the coalescer's in-flight window is at
// Options.MaxPending and Options.Shed selected fail-fast over
// backpressure, or the backend is degraded and the window is at half of
// MaxPending. The request was never queued; the caller may retry or
// degrade.
var ErrOverloaded = errors.New("serve: coalescer overloaded")

// DefaultWindow is the default coalescing deadline: the longest a queued
// request waits for companions before its batch is flushed.
const DefaultWindow = 100 * time.Microsecond

// Options configures a Coalescer.
type Options struct {
	// MaxBatch flushes a shard's batch as soon as it holds this many
	// requests; zero selects the tree's bucket size, so a full batch is
	// exactly one bucket of the heterogeneous search.
	MaxBatch int

	// Window is the deadline: the first request of a batch waits at
	// most this long before the batch is flushed regardless of size.
	// It is a maximum, not a minimum: a blocking caller's batch is
	// flushed as soon as no other flush is running (see Coalescer), so
	// only Submit's asynchronous requests and requests queued behind a
	// running flush ever wait on it. Zero selects DefaultWindow.
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
	//
	// While the server reports Degraded (breaker open, batches answered
	// by the slower CPU fallback) the window is clamped to MaxPending/2
	// (minimum 1) and the excess fails fast regardless of Shed, since
	// backpressure against a degraded backend just builds the queue the
	// bound exists to prevent (DESIGN §11). The full window is restored
	// the moment the server recovers.
	MaxPending int

	// Shed selects the response at the MaxPending bound: false (the
	// default) blocks the submitter until the window drains —
	// backpressure, the right mode for cooperating in-process clients;
	// true fails the excess request immediately with ErrOverloaded so
	// an external caller can retry against another replica or degrade.
	Shed bool
}

// Result is the outcome of one coalesced lookup.
type Result[K keys.Key] struct {
	Value K
	Found bool
	Err   error
}

// waiter is where one queued request's result goes: the request's own
// channel (Submit), or member idx of a blocking caller's group.
type waiter[K keys.Key] struct {
	ch  chan<- Result[K]
	g   *group[K]
	idx int32
}

// group is the reply cell of one blocking call (Lookup, LookupCtx,
// LookupGroup): however many requests the call queues, and across
// however many batches they land, their results collect in res — member
// i is the call's i-th key — and the caller parks once, on done. left
// counts the members not yet settled plus one hold the caller keeps
// while it is still queueing, so done is signalled at most once and only
// to a parked caller. Cells are pooled; res keeps its capacity, so the
// steady state allocates nothing. A caller whose deadline expires
// abandons its cell instead of pooling it: late flushes still write it.
type group[K keys.Key] struct {
	res  []Result[K]
	left atomic.Int32
	done chan struct{}
}

// settle marks n members of g as answered and wakes the parked caller
// on the last one.
func (g *group[K]) settle(n int) {
	if g.left.Add(int32(-n)) == 0 {
		g.done <- struct{}{}
	}
}

func (w waiter[K]) deliver(res Result[K]) {
	if w.g == nil {
		w.ch <- res
		return
	}
	w.g.res[w.idx] = res
	w.g.settle(1)
}

// pending is one shard's forming batch plus the result staging its
// flush writes into. Instances are pooled: a flusher returns its batch
// to the pool once every caller's result has been delivered.
type pending[K keys.Key] struct {
	keys    []K
	waiters []waiter[K]
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

	// armed records that the shard's deadline timer is running for this
	// batch. Submit arms it on the spot; a blocking caller's kick follows
	// its enqueue at once and arms it only if the batch then stays, so
	// the common idle flush never touches the timer.
	armed bool
}

// shard is one independent pending queue with its own deadline timer.
// The timer is created once and re-armed for each batch a request may
// have to wait in (Go 1.23 timer semantics make Reset/Stop race-free
// without channel draining); a per-shard goroutine waits on it and
// flushes deadline-expired batches, and on wake, where a finishing
// flush hands it the batch that queued up behind it.
type shard[K keys.Key] struct {
	mu     sync.Mutex
	cur    *pending[K] // nil after close
	timer  *time.Timer
	wake   chan struct{} // cap 1: "take the forming batch now"
	closed bool

	// want is set while the forming batch holds a blocking caller's
	// request: such a batch is flushed as soon as the engine allows
	// rather than at the deadline. Written under mu; read without it by
	// finishing flushes.
	want atomic.Bool
}

// flushCause is why a batch was flushed; it indexes Coalescer.flushes.
type flushCause int

const (
	flushFull     flushCause = iota // reached MaxBatch
	flushDeadline                   // the Window timer fired
	flushIdle                       // a blocking caller found no flush running
	flushHandoff                    // a finishing flush passed it on
	numFlushCauses
)

// FlushCounts breaks a coalescer's flushes down by what triggered them
// — the answer to "why was my batch this size". A flush is counted when
// it starts, so the sum leads Batches by the flushes still running (and
// by those the backend failed).
type FlushCounts struct {
	Full     int64 // the batch reached MaxBatch
	Deadline int64 // its oldest request waited out the Window
	Idle     int64 // a blocking caller flushed it because no flush was running
	Handoff  int64 // it queued behind a running flush, which passed it on when done
}

// Coalescer collects point lookups arriving from many goroutines into
// batches and serves each batch with one LookupBatchSortedInto call —
// the request-coalescing discipline that recovers the paper's batched
// throughput from a point-request workload. Submissions are spread
// round-robin over independent shards. A shard's batch is flushed
//
//   - when it reaches MaxBatch requests, inline by the submitter that
//     filled it (full);
//   - when its oldest request has waited for the Window deadline, by the
//     shard's flusher goroutine (deadline), so a lone request is never
//     starved;
//   - when a blocking caller (Lookup, LookupCtx, LookupGroup) has queued
//     everything it has and no flush is running anywhere in the
//     coalescer: the caller flushes the batch itself before it parks
//     (idle);
//   - when a flush finishes and a blocking caller's requests queued up
//     behind it: the finishing flush wakes the shard's flusher to take
//     them at once (handoff).
//
// The last two make the flushes work-conserving, so batch size follows
// load: one request when the engine is idle, a pipelining caller's whole
// group, and up to MaxBatch while the engine is busy — the Window is
// the longest a request waits, not the shortest. Submit is asynchronous
// and has no moment at which its caller has "queued everything": batches
// holding only submitted requests keep the plain size-or-deadline
// discipline.
//
// With Options.MaxPending set, the coalescer admits at most that many
// undelivered requests across all shards; excess submissions block for
// backpressure or, with Options.Shed, fail fast with ErrOverloaded —
// the admission control that keeps tail latency bounded under deep
// client pipelines. Admission is per request, in order, also within a
// group: a group larger than the free window sheds its excess, and a
// blocking-mode caller flushes what it has queued before it waits for a
// token, since its own queued requests may hold the tokens it needs.
//
// Close stops intake: later submissions fail fast with ErrClosed, and
// requests still pending when Close runs are failed with ErrClosed
// rather than left hanging. A batch already being flushed completes
// normally.
type Coalescer[K keys.Key] struct {
	be  backend[K]
	opt Options

	// degPending is the degraded-mode admission bound, MaxPending/2
	// (minimum 1; 0 when MaxPending is unbounded).
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
	groupPool sync.Pool // *group[K]

	done      chan struct{} // closed when Close runs; stops the flushers
	closeOnce sync.Once
	wg        sync.WaitGroup

	// flushing counts the flushes running on any shard, from the moment
	// a batch is detached (under its shard's lock) to result delivery.
	flushing atomic.Int32

	batches   atomic.Int64 // batches flushed
	queries   atomic.Int64 // requests served through batches
	folded    atomic.Int64 // duplicate keys folded out of flushes
	shed      atomic.Int64 // requests refused with ErrOverloaded
	degShed   atomic.Int64 // of those, refused by fault-aware admission
	deadlines atomic.Int64 // requests abandoned with ErrDeadlineExceeded
	flushes   [numFlushCauses]atomic.Int64
	shedRate  rateTracker // sheds per second, behind ShedRate
}

// backend is what a Coalescer flushes against. *Server is its one
// production implementation; it stays an interface because tests hold
// a flush open with a gated or slowed stand-in for the server, and a
// server's reads never wait on anything a test could hold.
type backend[K keys.Key] interface {
	// LookupBatchSortedInto serves one coalesced batch into the caller's
	// slices through the shared-descent path (see
	// Server.LookupBatchSortedInto); the coalescer presorts and
	// deduplicates its batches to land on the sorted fast path.
	LookupBatchSortedInto(queries []K, values []K, found []bool) (core.SearchStats, error)
	// Options exposes the tree configuration (MaxBatch defaults to its
	// BucketSize).
	Options() core.Options
	// Degraded reports whether the server is in degraded mode; the
	// coalescer sheds earlier while it holds.
	Degraded() bool
}

// NewCoalescer starts a coalescer over a server (see Server.Coalesce).
// The caller must Close it to stop the per-shard flusher goroutines.
func NewCoalescer[K keys.Key](be backend[K], opt Options) *Coalescer[K] {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = be.Options().BucketSize
	}
	if opt.Window <= 0 {
		opt.Window = DefaultWindow
	}
	if opt.Shards <= 0 {
		opt.Shards = runtime.GOMAXPROCS(0)
	}
	degPending := 0
	if opt.MaxPending > 0 {
		degPending = max(opt.MaxPending/2, 1)
	}
	c := &Coalescer[K]{
		be:         be,
		opt:        opt,
		degPending: degPending,
		shards:     make([]shard[K], opt.Shards),
		done:       make(chan struct{}),
	}
	c.batchPool.New = func() any {
		p := &pending[K]{
			keys:    make([]K, 0, opt.MaxBatch),
			waiters: make([]waiter[K], 0, opt.MaxBatch),
			values:  make([]K, opt.MaxBatch),
			found:   make([]bool, opt.MaxBatch),
			perm:    make([]int32, opt.MaxBatch),
			uref:    make([]int32, opt.MaxBatch),
		}
		return p
	}
	c.groupPool.New = func() any { return &group[K]{done: make(chan struct{}, 1)} }
	if opt.MaxPending > 0 {
		c.slots = make(chan struct{}, opt.MaxPending)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cur = c.getBatch()
		sh.timer = time.NewTimer(time.Hour)
		sh.timer.Stop()
		sh.wake = make(chan struct{}, 1)
		c.wg.Add(1)
		go c.flusher(sh)
	}
	return c
}

func (c *Coalescer[K]) getBatch() *pending[K] {
	p := c.batchPool.Get().(*pending[K])
	p.keys = p.keys[:0]
	p.waiters = p.waiters[:0]
	p.armed = false
	return p
}

// getGroup returns a reply cell for a blocking call of n requests.
func (c *Coalescer[K]) getGroup(n int) *group[K] {
	g := c.groupPool.Get().(*group[K])
	if cap(g.res) < n {
		g.res = make([]Result[K], n)
	}
	g.res = g.res[:n]
	g.left.Store(int32(n) + 1)
	return g
}

// stripe picks the shard the tick-th caller queues on.
func (c *Coalescer[K]) stripe(tick uint64) *shard[K] {
	return &c.shards[tick%uint64(len(c.shards))]
}

// Submit enqueues one lookup and returns the channel its Result will be
// delivered on. The channel receives exactly one Result; after Close it
// receives ErrClosed, and past the admission bound in shed mode it
// receives ErrOverloaded. Submit never flushes on its own account: the
// request leaves when its batch fills, when the Window expires, or with
// a blocking caller's request that shares the batch.
func (c *Coalescer[K]) Submit(key K) <-chan Result[K] {
	reply := make(chan Result[K], 1)
	if c.slots != nil {
		ok, err := c.tryAdmit()
		if !ok && err == nil {
			err = c.waitAdmit(context.Background())
		}
		if err != nil {
			reply <- Result[K]{Err: err}
			return reply
		}
	}
	k := [1]K{key}
	if c.enqueue(c.stripe(c.next.Add(1)), k[:], waiter[K]{ch: reply}) == 0 {
		reply <- Result[K]{Err: ErrClosed}
	}
	return reply
}

// Lookup submits one query and blocks for its coalesced result. The
// reply cell is pooled, so the steady-state path allocates nothing.
func (c *Coalescer[K]) Lookup(key K) (K, bool, error) {
	return c.LookupCtx(context.Background(), key)
}

// LookupCtx is Lookup with a caller deadline covering both admission
// (a backpressure wait at the MaxPending bound) and the parked wait for
// the coalesced result. An expired request returns ErrDeadlineExceeded
// and is abandoned: its slot in the batch still flushes, but nobody
// waits on the reply. Only an abandoned reply cell is lost to the pool
// (the late flush still writes into it); a deadline that does not
// expire costs no allocation.
func (c *Coalescer[K]) LookupCtx(ctx context.Context, key K) (K, bool, error) {
	k, out := [1]K{key}, [1]Result[K]{}
	c.LookupGroup(ctx, k[:], out[:])
	return out[0].Value, out[0].Found, out[0].Err
}

// LookupGroup looks up keys[i] into out[i] for a caller that has
// len(keys) requests in hand at once — a connection's pipelined GETs.
// The group is queued on one shard under one lock acquisition, flushed
// at once when no flush is running (so an idle coalescer answers it as
// one batch of len(keys)), and the caller parks once for all of it.
// Each request is admitted on its own, in order: out[i].Err is
// ErrOverloaded for the ones shed, ErrClosed after Close. ctx bounds the
// whole call — the admission waits and the park; when it expires, every
// request still queued or in flight answers ErrDeadlineExceeded. out
// must be at least as long as keys.
func (c *Coalescer[K]) LookupGroup(ctx context.Context, keys []K, out []Result[K]) {
	out = out[:len(keys)]
	clear(out)
	g := c.getGroup(len(keys))
	sh := c.stripe(c.next.Add(1))
	c.submitRun(ctx, g, sh, keys, out)
	c.kick(sh, false)
	c.await(ctx, g, out)
}

// submitRun admits keys[i] as member i of g, in order, and queues the
// admitted ones on sh; members refused are settled in out with the
// reason. It does not flush the forming batch (the caller kicks sh when
// it has nothing more to queue there) except before it blocks for an
// admission token.
func (c *Coalescer[K]) submitRun(ctx context.Context, g *group[K], sh *shard[K], keys []K, out []Result[K]) {
	lo := 0 // keys[lo:i] hold tokens and are not queued yet
	queue := func(hi int) {
		if hi > lo {
			q := c.enqueue(sh, keys[lo:hi], waiter[K]{g: g, idx: int32(lo)})
			for m := lo + q; m < hi; m++ {
				out[m].Err = ErrClosed
			}
			g.settle(hi - lo - q)
		}
		lo = hi
	}
	if c.slots != nil {
		for i := range keys {
			ok, err := c.tryAdmit()
			if !ok && err == nil {
				// Backpressure at the bound. The tokens this caller is
				// about to wait for may be held by its own queued
				// requests, which nobody else is obliged to flush.
				queue(i)
				c.kick(sh, true)
				err = c.waitAdmit(ctx)
			}
			if err != nil {
				queue(i)
				out[i].Err = err
				g.settle(1)
				lo = i + 1
			}
		}
	}
	queue(len(keys))
}

// await drops the caller's hold on g, parks until every member is
// settled or ctx expires, and copies the results out.
func (c *Coalescer[K]) await(ctx context.Context, g *group[K], out []Result[K]) {
	if g.left.Add(-1) != 0 {
		select {
		case <-g.done:
		case <-ctx.Done():
			// Which members a concurrent flush has already answered
			// cannot be read without racing it, so the budget fails
			// every member that was queued.
			n := 0
			for i := range out {
				if out[i].Err == nil {
					out[i].Err = ErrDeadlineExceeded
					n++
				}
			}
			c.deadlines.Add(int64(n))
			return
		}
	}
	for i := range out {
		if out[i].Err == nil {
			out[i] = g.res[i]
		}
	}
	c.groupPool.Put(g)
}

// tryAdmit takes one token from the coalescer's admission pool without
// blocking, before the request touches a shard. The effective window is
// MaxPending, clamped to MaxPending/2 while the backend is degraded
// (the cheap length check runs first so the healthy path never pays for
// the breaker-state load). Past the window the request is shed with
// ErrOverloaded when Shed is set or the degraded clamp engaged (queueing
// against the slower fallback only builds the backlog the bound exists
// to prevent); otherwise neither ok nor err is set and the caller may
// block in waitAdmit. The length check is soft — a racing submitter can
// land one past it — but the token channel's MaxPending capacity stays
// the hard cap.
func (c *Coalescer[K]) tryAdmit() (ok bool, err error) {
	w, n := c.opt.MaxPending, len(c.slots)
	eff := w
	clamped := n >= c.degPending && c.be.Degraded()
	if clamped {
		eff = min(eff, c.degPending)
	}
	sheds := c.opt.Shed || clamped
	if !sheds || n < eff {
		select {
		case c.slots <- struct{}{}:
			return true, nil
		default:
		}
	}
	if !sheds {
		return false, nil
	}
	c.shed.Add(1)
	if clamped && n < w {
		c.degShed.Add(1)
	}
	c.shedRate.note(time.Now().UnixNano())
	return false, ErrOverloaded
}

// waitAdmit blocks until a token frees, the coalescer closes or ctx
// expires (context.Background's nil Done channel makes that case free
// for undeadlined callers).
func (c *Coalescer[K]) waitAdmit(ctx context.Context) error {
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

// enqueue appends a run of admitted requests to sh's forming batch
// under one lock acquisition; a batch that fills is detached and flushed
// inline once the lock is dropped, and the rest of the run continues in
// the fresh one. keys[i] answers to w — for a group's run, as the member
// i places after w.idx. It returns how many requests were queued: fewer
// than len(keys) only on a closed coalescer, where the rest hold no token
// any more and nothing will be delivered for them.
func (c *Coalescer[K]) enqueue(sh *shard[K], keys []K, w waiter[K]) int {
	queued := 0
	for queued < len(keys) {
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			c.releaseSlots(len(keys) - queued)
			break
		}
		p := sh.cur
		n := min(len(keys)-queued, c.opt.MaxBatch-len(p.keys))
		p.keys = append(p.keys, keys[queued:queued+n]...)
		for i := 0; i < n; i++ {
			p.waiters = append(p.waiters, w)
			w.idx++
		}
		queued += n
		if len(p.keys) >= c.opt.MaxBatch {
			c.take(sh)
			sh.mu.Unlock()
			c.flush(p, flushFull)
			continue
		}
		if w.g != nil {
			sh.want.Store(true)
		} else {
			c.arm(sh)
		}
		sh.mu.Unlock()
	}
	return queued
}

// arm starts the deadline timer for sh's forming batch unless it is
// already running. The caller holds sh.mu.
func (c *Coalescer[K]) arm(sh *shard[K]) {
	if p := sh.cur; !p.armed {
		p.armed = true
		sh.timer.Reset(c.opt.Window)
	}
}

// take detaches sh's forming batch for a flush and counts the flush as
// running from this moment, so a caller that queues on sh next already
// sees it. The caller holds sh.mu.
func (c *Coalescer[K]) take(sh *shard[K]) *pending[K] {
	p := sh.cur
	sh.cur = c.getBatch()
	if p.armed {
		sh.timer.Stop()
	}
	sh.want.Store(false)
	c.flushing.Add(1)
	return p
}

// kick is what a blocking caller does once it has queued everything it
// has for sh: if its requests are still in the forming batch and no
// flush is running, it flushes the batch itself rather than leave it to
// the deadline. With a flush running the batch stays, marked wanted:
// the first flush to finish hands it to the shard's flusher, and the
// deadline timer, armed here, backs that up. force flushes regardless,
// for a caller about to block on tokens its queued requests hold.
func (c *Coalescer[K]) kick(sh *shard[K], force bool) {
	sh.mu.Lock()
	if !sh.want.Load() {
		sh.mu.Unlock()
		return
	}
	if !force && c.flushing.Load() != 0 {
		c.arm(sh)
		sh.mu.Unlock()
		return
	}
	p := c.take(sh)
	sh.mu.Unlock()
	c.flush(p, flushIdle)
}

// flusher is a shard's flush goroutine: it flushes whatever has
// accumulated when the shard's reused timer fires, and a blocking
// caller's batch when a finishing flush wakes it. An empty or
// already-taken batch is a benign wakeup.
func (c *Coalescer[K]) flusher(sh *shard[K]) {
	defer c.wg.Done()
	for {
		cause := flushDeadline
		select {
		case <-sh.timer.C:
		case <-sh.wake:
			cause = flushHandoff
		case <-c.done:
			return
		}
		sh.mu.Lock()
		if sh.closed || len(sh.cur.keys) == 0 || (cause == flushHandoff && !sh.want.Load()) {
			sh.mu.Unlock()
			continue
		}
		p := c.take(sh)
		sh.mu.Unlock()
		c.flush(p, cause)
	}
}

// flush serves one detached batch with the allocation-free batch search
// and distributes each caller's result, then recycles the batch,
// releases its admission window tokens and hands the engine to whatever
// queued up meanwhile.
//
// The flush presorts the keys (tracking each key's submission
// position), folds exact duplicates into one batch slot, and hands the
// backend a sorted duplicate-free batch — which the shared-descent
// search resolves at one node probe per distinct node per level, and
// which decomposes into one contiguous run per shard on a sharded
// backend. Each unique result fans back out to every waiter that
// submitted that key.
func (c *Coalescer[K]) flush(p *pending[K], cause flushCause) {
	c.flushes[cause].Add(1)
	n := len(p.keys)
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

	if _, err := c.be.LookupBatchSortedInto(skeys[:u], values[:u], found[:u]); err != nil {
		c.fail(p, err)
	} else {
		// Counted before delivery: a caller holding its result sees the
		// batch that produced it in the counters.
		c.batches.Add(1)
		c.queries.Add(int64(n))
		c.folded.Add(int64(n - u))
		for i := 0; i < n; i++ {
			j := uref[i]
			p.waiters[perm[i]].deliver(Result[K]{Value: values[j], Found: found[j]})
		}
		c.recycle(p)
	}

	// Work conservation: requests that blocking callers queued while
	// this flush ran did not flush themselves (kick saw it running), so
	// the engine is handed to them now instead of at their deadline.
	// want is stored before kick loads flushing and flushing is
	// decremented before want is loaded here, so one side always sees
	// the other.
	c.flushing.Add(-1)
	for i := range c.shards {
		if sh := &c.shards[i]; sh.want.Load() {
			select {
			case sh.wake <- struct{}{}:
			default:
			}
		}
	}
}

// fail delivers err to every caller in the batch and recycles it.
func (c *Coalescer[K]) fail(p *pending[K], err error) {
	for _, w := range p.waiters {
		w.deliver(Result[K]{Err: err})
	}
	c.recycle(p)
}

// recycle releases a delivered batch's admission tokens and pools it.
func (c *Coalescer[K]) recycle(p *pending[K]) {
	c.releaseSlots(len(p.waiters))
	clear(p.waiters) // don't pin reply cells from the pool
	c.batchPool.Put(p)
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
			sh.want.Store(false)
			sh.mu.Unlock()
			if p != nil && len(p.keys) > 0 {
				c.fail(p, ErrClosed)
			}
		}
	})
	c.wg.Wait()
}

// Flushes returns the flushes started so far, by cause.
func (c *Coalescer[K]) Flushes() FlushCounts {
	return FlushCounts{
		Full:     c.flushes[flushFull].Load(),
		Deadline: c.flushes[flushDeadline].Load(),
		Idle:     c.flushes[flushIdle].Load(),
		Handoff:  c.flushes[flushHandoff].Load(),
	}
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

// AdmitWindow returns the coalescer's admission window, one budget for
// all its pending queues: Options.MaxPending (0 = unbounded).
func (c *Coalescer[K]) AdmitWindow() int { return c.opt.MaxPending }

// ShedRate returns the sheds/sec over the last second.
func (c *Coalescer[K]) ShedRate() float64 {
	return c.shedRate.perSecond(time.Now().UnixNano())
}

// rateBuckets x rateBucketNs make up the shed-rate measurement window:
// eight 125ms buckets covering the last second.
const (
	rateBuckets  = 8
	rateBucketNs = int64(time.Second) / rateBuckets
)

// rateTracker is a bucketed ring counting events per 125ms bucket; the
// sum of live buckets is the events/sec over the last second. It is
// touched only on the shed path and at metrics reads, so a mutex is
// fine.
type rateTracker struct {
	mu     sync.Mutex
	counts [rateBuckets]int64
	bucket [rateBuckets]int64 // which absolute bucket each slot holds
}

func (r *rateTracker) note(nowNs int64) {
	b := nowNs / rateBucketNs
	i := int(b % rateBuckets)
	r.mu.Lock()
	if r.bucket[i] != b {
		r.bucket[i] = b
		r.counts[i] = 0
	}
	r.counts[i]++
	r.mu.Unlock()
}

// perSecond returns the event rate over the trailing second (the
// current partial bucket included).
func (r *rateTracker) perSecond(nowNs int64) float64 {
	b := nowNs / rateBucketNs
	var n int64
	r.mu.Lock()
	for i := 0; i < rateBuckets; i++ {
		if b-r.bucket[i] < rateBuckets {
			n += r.counts[i]
		}
	}
	r.mu.Unlock()
	return float64(n)
}
