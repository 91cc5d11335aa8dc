package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Adaptive admission (DESIGN §11): a closed-loop controller that holds
// the coalescer's per-request latency near Options.TargetP99 by
// resizing the pending-token window online instead of trusting a
// statically tuned MaxPending. The measured signal is the flush span —
// first enqueue to result delivery, which is exactly the latency the
// oldest request of the batch observed and, by Little's law, tracks
// window/capacity as flush cost shifts with batch size, device
// contention and update mix. Spans from the write path (update pumps)
// feed the same loop through NoteSpan, so a clone-heavy update phase
// shrinks the read window before read tail latency blows past the
// target.

// OverloadError is the typed shed error: it satisfies
// errors.Is(err, ErrOverloaded) for existing callers and carries the
// retry-after hint derived from the current window drain time and shed
// rate, so external clients can back off proportionally instead of
// hammering a saturated window.
type OverloadError struct {
	// RetryAfter is the suggested wait before retrying: the estimated
	// time for the current admission window to drain, inflated by the
	// backlog of concurrently shed requests that will be retrying too.
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: coalescer overloaded (retry after %v)", e.RetryAfter)
}

// Unwrap keeps errors.Is(err, ErrOverloaded) true for every wrapped
// shed, static or adaptive.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// OverloadMetrics is the admission-control view of a coalescer: the
// cumulative shed counters, the windowed shed rate, and the controller
// state (static coalescers report their fixed window and a zero
// target).
type OverloadMetrics struct {
	Shed         int64         // requests refused with ErrOverloaded (cumulative)
	DegradedShed int64         // of those, refused by the degraded clamp
	ShedRate     float64       // sheds/sec over the last second
	AdmitWindow  int           // current admission window (one per coalescer)
	TargetP99    time.Duration // controller target (0 = static admission)
	RetryAfter   time.Duration // hint currently attached to sheds
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

// controller is the AIMD window governor. Flush spans feed note(); on a
// step interval the worst span since the last step is compared against
// the target: above target the window shrinks multiplicatively (×3/4),
// below half the target it grows additively, and inside the
// [target/2, target] deadband it holds — which is what keeps the loop
// from oscillating once it has found the capacity point. The window is
// clamped to [minW, maxW] and starts at maxW: admission is optimistic
// and the first overloaded step pulls it down within stepNs.
type controller struct {
	target int64 // ns, the latency target
	minW   int64 // floor (resolved Options.MinPending)
	maxW   int64 // ceiling (Options.MaxPending)
	stepNs int64 // step interval
	incr   int64 // additive increase per step

	window   atomic.Int64 // current admission window
	ewma     atomic.Int64 // smoothed flush span, ns (alpha 1/8)
	peak     atomic.Int64 // worst span since the last step
	lastStep atomic.Int64 // unix ns of the last step
	steps    atomic.Int64 // steps taken (introspection/tests)
}

func newController(opt Options) *controller {
	ctl := &controller{
		target: opt.TargetP99.Nanoseconds(),
		minW:   int64(opt.MinPending),
		maxW:   int64(opt.MaxPending),
	}
	// Step at a quarter of the target so a latency excursion is
	// answered well inside one target period, bounded to [2ms, 50ms]
	// so microsecond targets do not spin and second-scale targets
	// still react.
	ctl.stepNs = ctl.target / 4
	if ctl.stepNs < int64(2*time.Millisecond) {
		ctl.stepNs = int64(2 * time.Millisecond)
	}
	if ctl.stepNs > int64(50*time.Millisecond) {
		ctl.stepNs = int64(50 * time.Millisecond)
	}
	// Additive increase reaches the ceiling from the floor in ~64
	// steps — a few hundred ms at the default cadence, the probe-up
	// timescale after a shed episode ends.
	ctl.incr = ctl.maxW / 64
	if ctl.incr < 1 {
		ctl.incr = 1
	}
	ctl.window.Store(ctl.maxW)
	return ctl
}

// note records one span observation.
func (ctl *controller) note(spanNs int64) {
	for {
		old := ctl.ewma.Load()
		nw := old + (spanNs-old)/8
		if old == 0 {
			nw = spanNs
		}
		if ctl.ewma.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		p := ctl.peak.Load()
		if spanNs <= p || ctl.peak.CompareAndSwap(p, spanNs) {
			break
		}
	}
}

// maybeStep runs one AIMD step if the step interval has elapsed,
// returning whether it did. Steps ride the flush path (no dedicated
// goroutine): whichever flusher crosses the interval first wins the
// CAS and adjusts the window for everyone.
func (ctl *controller) maybeStep(nowNs int64) bool {
	last := ctl.lastStep.Load()
	if nowNs-last < ctl.stepNs || !ctl.lastStep.CompareAndSwap(last, nowNs) {
		return false
	}
	peak := ctl.peak.Swap(0)
	if peak == 0 {
		// No flush completed since the last step: hold rather than
		// probe blind.
		return true
	}
	w := ctl.window.Load()
	switch {
	case peak > ctl.target:
		w = w * 3 / 4
	case peak*2 < ctl.target:
		w += ctl.incr
	}
	if w < ctl.minW {
		w = ctl.minW
	}
	if w > ctl.maxW {
		w = ctl.maxW
	}
	ctl.window.Store(w)
	ctl.steps.Add(1)
	return true
}

// noteSpan feeds one span into the controller and refreshes the cached
// overload error when a step fires.
func (c *Coalescer[K]) noteSpan(d time.Duration) {
	now := time.Now().UnixNano()
	c.ctl.note(d.Nanoseconds())
	if c.ctl.maybeStep(now) {
		c.refreshOverload(now)
	}
}

// noteFlushSpan records a completed flush's first-enqueue-to-delivery
// span. Zero t0 (adaptive off, or a batch that filled on its very
// first request before the timestamp was armed) is skipped.
func (c *Coalescer[K]) noteFlushSpan(t0 time.Time) {
	if c.ctl == nil || t0.IsZero() {
		return
	}
	c.noteSpan(time.Since(t0))
}

// refreshOverload recomputes the retry-after hint and publishes a fresh
// immutable OverloadError for the shed path to hand out without
// allocating per request. The hint is the window drain estimate (the
// smoothed flush span, floored at one coalescing window) inflated by
// the shed backlog: every window's worth of requests shed in the last
// second is one more drain period a retrier will queue behind.
func (c *Coalescer[K]) refreshOverload(nowNs int64) {
	drain := c.ctl.ewma.Load()
	if w := c.opt.Window.Nanoseconds(); drain < w {
		drain = w
	}
	wnd := c.ctl.window.Load()
	if wnd < 1 {
		wnd = 1
	}
	backlog := 1 + c.shedRate.perSecond(nowNs)*(float64(drain)/float64(time.Second))/float64(wnd)
	if backlog > 8 {
		backlog = 8
	}
	ra := time.Duration(float64(drain) * backlog)
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	if ra > time.Second {
		ra = time.Second
	}
	c.overload.Store(&OverloadError{RetryAfter: ra})
}

// noteShed counts one shed into the windowed rate tracker.
func (c *Coalescer[K]) noteShed() {
	c.shedRate.note(time.Now().UnixNano())
}

// overloadErr returns the current cached typed shed error.
func (c *Coalescer[K]) overloadErr() error { return c.overload.Load() }

// AdmitWindow returns the coalescer's admission window, one budget for
// all its pending queues: the controller's live value under adaptive
// admission, Options.MaxPending otherwise (0 = unbounded).
func (c *Coalescer[K]) AdmitWindow() int {
	if c.ctl != nil {
		return int(c.ctl.window.Load())
	}
	return c.opt.MaxPending
}

// ShedRate returns the sheds/sec over the last second.
func (c *Coalescer[K]) ShedRate() float64 {
	return c.shedRate.perSecond(time.Now().UnixNano())
}

// TargetP99 returns the configured latency target (0 = static
// admission).
func (c *Coalescer[K]) TargetP99() time.Duration { return c.opt.TargetP99 }

// RetryAfter returns the hint currently attached to shed responses.
func (c *Coalescer[K]) RetryAfter() time.Duration {
	return c.overload.Load().RetryAfter
}

// NoteSpan feeds an externally measured span into the admission
// controller — the hook the update pumps and serving shells use so
// write-path latency shifts move the read window too. A no-op on a
// static coalescer.
func (c *Coalescer[K]) NoteSpan(d time.Duration) {
	if c.ctl == nil || d <= 0 {
		return
	}
	c.noteSpan(d)
}

// OverloadMetrics returns the admission-control snapshot.
func (c *Coalescer[K]) OverloadMetrics() OverloadMetrics {
	return OverloadMetrics{
		Shed:         c.Shed(),
		DegradedShed: c.DegradedShed(),
		ShedRate:     c.ShedRate(),
		AdmitWindow:  c.AdmitWindow(),
		TargetP99:    c.opt.TargetP99,
		RetryAfter:   c.RetryAfter(),
	}
}

// setWindowForTest forces the controller's window (tests only: lets a
// convergence test start from the floor instead of the optimistic
// ceiling).
func (c *Coalescer[K]) setWindowForTest(w int) {
	if c.ctl != nil {
		c.ctl.window.Store(int64(w))
	}
}
