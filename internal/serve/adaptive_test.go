package serve

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbtree/internal/core"
)

// slowBackend is a deterministic-capacity fake: every flush holds a
// shared mutex for per — one "device" serving batches serially — so the
// backend's capacity is exactly MaxBatch/per regardless of host speed.
// Lookups echo the key as the value.
type slowBackend struct {
	mu  sync.Mutex
	per time.Duration
	deg atomic.Bool
}

func (b *slowBackend) LookupBatchSortedInto(q, v []uint64, f []bool) (core.SearchStats, error) {
	if b.per > 0 {
		b.mu.Lock()
		time.Sleep(b.per)
		b.mu.Unlock()
	}
	for i := range q {
		v[i], f[i] = q[i], true
	}
	return core.SearchStats{Queries: len(q)}, nil
}

func (b *slowBackend) Options() core.Options { return core.Options{BucketSize: 64} }
func (b *slowBackend) Degraded() bool        { return b.deg.Load() }

// TestOverloadErrorTyped: sheds carry the typed OverloadError — still
// matching errors.Is(err, ErrOverloaded) for existing callers — with a
// positive retry-after hint, on both the static and the adaptive path.
func TestOverloadErrorTyped(t *testing.T) {
	for _, target := range []time.Duration{0, 50 * time.Millisecond} {
		co := NewCoalescer[uint64](&slowBackend{}, Options{
			Shards: 1, MaxBatch: 100, Window: time.Hour,
			MaxPending: 2, Shed: true, TargetP99: target,
		})
		if target > 0 {
			co.setWindowForTest(2)
		}
		a, b := co.Submit(1), co.Submit(2) // fill the window
		res := <-co.Submit(3)
		if !errors.Is(res.Err, ErrOverloaded) {
			t.Fatalf("target %v: shed error = %v, want ErrOverloaded", target, res.Err)
		}
		var oe *OverloadError
		if !errors.As(res.Err, &oe) {
			t.Fatalf("target %v: shed error %T does not unwrap to *OverloadError", target, res.Err)
		}
		if oe.RetryAfter <= 0 {
			t.Fatalf("target %v: RetryAfter = %v, want > 0", target, oe.RetryAfter)
		}
		if got := co.Shed(); got != 1 {
			t.Fatalf("target %v: Shed = %d, want 1", target, got)
		}
		if co.ShedRate() <= 0 {
			t.Fatalf("target %v: ShedRate = 0 right after a shed", target)
		}
		co.Close()
		for _, ch := range []<-chan Result[uint64]{a, b} {
			if r := <-ch; !errors.Is(r.Err, ErrClosed) {
				t.Fatalf("pending request after Close = %v, want ErrClosed", r.Err)
			}
		}
	}
}

// TestStaticPathUnchangedWithoutTarget: with TargetP99 unset the new
// option fields are inert — an identical submission schedule produces
// identical admission decisions whether or not MinPending is set, and
// the window stays the fixed MaxPending.
func TestStaticPathUnchangedWithoutTarget(t *testing.T) {
	run := func(opt Options) (shed int64, errs []error) {
		co := NewCoalescer[uint64](&slowBackend{}, opt)
		defer co.Close()
		var parked []<-chan Result[uint64]
		for i := uint64(0); i < 6; i++ {
			ch := co.Submit(i)
			select {
			case res := <-ch:
				errs = append(errs, res.Err)
			default:
				parked = append(parked, ch)
				errs = append(errs, nil)
			}
		}
		if got, want := co.AdmitWindow(), opt.MaxPending; got != want {
			t.Fatalf("static AdmitWindow = %d, want MaxPending %d", got, want)
		}
		if got := co.TargetP99(); got != 0 {
			t.Fatalf("static TargetP99 = %v, want 0", got)
		}
		return co.Shed(), errs
	}
	base := Options{Shards: 1, MaxBatch: 100, Window: time.Hour, MaxPending: 3, Shed: true}
	withInert := base
	withInert.MinPending = 7

	shedA, errsA := run(base)
	shedB, errsB := run(withInert)
	if shedA != shedB || shedA != 3 {
		t.Fatalf("shed counts differ: base %d, with inert fields %d (want 3)", shedA, shedB)
	}
	for i := range errsA {
		if (errsA[i] == nil) != (errsB[i] == nil) {
			t.Fatalf("submission %d: admission differs (%v vs %v)", i, errsA[i], errsB[i])
		}
		if errsA[i] != nil && !errors.Is(errsA[i], ErrOverloaded) {
			t.Fatalf("submission %d: err = %v, want ErrOverloaded", i, errsA[i])
		}
	}
}

// TestAdaptiveDefaults: TargetP99 without MaxPending resolves the 4096
// ceiling and a MaxPending/64 floor, and the controller starts at the
// ceiling.
func TestAdaptiveDefaults(t *testing.T) {
	co := NewCoalescer[uint64](&slowBackend{}, Options{Shards: 1, TargetP99: 10 * time.Millisecond})
	defer co.Close()
	if got := co.AdmitWindow(); got != 4096 {
		t.Fatalf("AdmitWindow = %d, want 4096", got)
	}
	if got := co.ctl.minW; got != 64 {
		t.Fatalf("resolved floor = %d, want 64", got)
	}
	if got := co.TargetP99(); got != 10*time.Millisecond {
		t.Fatalf("TargetP99 = %v", got)
	}
	m := co.OverloadMetrics()
	if m.AdmitWindow != 4096 || m.TargetP99 != 10*time.Millisecond || m.RetryAfter <= 0 {
		t.Fatalf("OverloadMetrics = %+v", m)
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

// TestAdaptiveConvergenceHalfCapacity: under steady load well below
// capacity the controller grows the window from the floor back to
// MaxPending — and nothing is shed on the way (ISSUE 9 satellite).
func TestAdaptiveConvergenceHalfCapacity(t *testing.T) {
	be := &slowBackend{per: 200 * time.Microsecond}
	co := NewCoalescer[uint64](be, Options{
		Shards: 1, MaxBatch: 64, Window: time.Millisecond,
		MaxPending: 1024, MinPending: 16, TargetP99: 40 * time.Millisecond,
	})
	defer co.Close()
	co.setWindowForTest(16)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			k := uint64(c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := co.Lookup(k); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				k += 8
			}
		}(c)
	}
	deadline := time.Now().Add(5 * time.Second)
	for co.AdmitWindow() < 1024 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := co.AdmitWindow(); got != 1024 {
		t.Fatalf("window did not grow back to MaxPending: %d (steps %d, ewma %v)",
			got, co.ctl.steps.Load(), time.Duration(co.ctl.ewma.Load()))
	}
	if got := co.Shed(); got != 0 {
		t.Fatalf("shed %d requests at half capacity, want 0", got)
	}
}

// overloadSampleCap bounds the latencies one client of an overload run
// keeps.
const overloadSampleCap = 1 << 15

// p99 returns the 99th percentile of lats (0 when empty), sorting them
// in place.
func p99(lats []time.Duration) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	slices.Sort(lats)
	return lats[int(float64(len(lats)-1)*0.99)]
}

// overloadRun is what one arm of runOverload observed.
type overloadRun struct {
	completed  int64         // lookups answered over the whole run
	shed       int64         // and refused
	samples    int           // admitted lookups timed after warm-up
	p99        time.Duration // and their 99th percentile
	wmin, wmax int           // admission-window excursion after warm-up
}

// runOverload drives 640 closed-loop clients for 3 s against a 16k
// req/s slowBackend (32-key flushes, 2 ms each, serialized) through a
// coalescer built from opt; shed clients back off by the retry hint.
func runOverload(t *testing.T, opt Options) overloadRun {
	t.Helper()
	const (
		clients = 640
		run     = 3 * time.Second
		warmup  = 1200 * time.Millisecond
	)
	opt.Shards, opt.MaxBatch, opt.Window = 1, 32, 500*time.Microsecond
	co := NewCoalescer[uint64](&slowBackend{per: 2 * time.Millisecond}, opt)
	defer co.Close()

	var r overloadRun
	var lateLats []time.Duration
	start := time.Now()
	var stop atomic.Bool
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lats []time.Duration
			var done int64
			k := uint64(c)
			for !stop.Load() {
				t0 := time.Now()
				_, _, err := co.Lookup(k)
				k += clients
				if err != nil {
					var oe *OverloadError
					if errors.As(err, &oe) {
						time.Sleep(min(oe.RetryAfter, 5*time.Millisecond))
						continue
					}
					t.Errorf("lookup: %v", err)
					return
				}
				done++
				if time.Since(start) > warmup && len(lats) < overloadSampleCap {
					lats = append(lats, time.Since(t0))
				}
			}
			mu.Lock()
			r.completed += done
			lateLats = append(lateLats, lats...)
			mu.Unlock()
		}(c)
	}
	// Sample the window over the settled tail of the run.
	for time.Since(start) < run {
		time.Sleep(5 * time.Millisecond)
		if time.Since(start) <= warmup {
			continue
		}
		w := co.AdmitWindow()
		if r.wmin == 0 || w < r.wmin {
			r.wmin = w
		}
		if w > r.wmax {
			r.wmax = w
		}
	}
	stop.Store(true)
	wg.Wait()
	r.shed, r.samples, r.p99 = co.Shed(), len(lateLats), p99(lateLats)
	t.Logf("target %v: completed %d, admitted p99 %v, window %d..%d, shed %d, rate %.0f/s, retry hint %v",
		opt.TargetP99, r.completed, r.p99, r.wmin, r.wmax, r.shed, co.ShedRate(), co.RetryAfter())
	return r
}

// TestAdaptiveOverloadHoldsTarget: under sustained 640-client overload
// of a 16k req/s backend the controller must settle the window near
// target×capacity — admitted p99 within 2× the target, window samples
// inside a 4× band (no oscillation), and the excess shed with hints.
// Holding the target must not cost completed work against the static
// window it replaces: the fail-fast window a deployment would size for
// the spike, a quarter of a flush. That arm cannot fill a batch, so the
// per-flush cost caps it at 8 keys per 2 ms whatever the host does.
func TestAdaptiveOverloadHoldsTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second closed-loop run")
	}
	const target = 20 * time.Millisecond
	ad := runOverload(t, Options{MaxPending: 2048, MinPending: 16, TargetP99: target})
	static := runOverload(t, Options{MaxPending: 8, Shed: true})
	if static.wmin != 8 || static.wmax != 8 {
		t.Errorf("static window moved: %d..%d", static.wmin, static.wmax)
	}

	if ad.shed == 0 {
		t.Fatal("overload run shed nothing — offered load never exceeded the window")
	}
	if ad.samples < 1000 {
		t.Skipf("host too slow for a meaningful sample: %d admitted lookups after warmup", ad.samples)
	}
	if ad.p99 > 2*target {
		t.Errorf("admitted p99 %v above 2× target %v (window %d..%d)", ad.p99, 2*target, ad.wmin, ad.wmax)
	}
	// The variance bound: settled window samples stay within a 4× band
	// — AIMD with a [target/2, target] deadband holds, it does not saw.
	if ad.wmin > 0 && ad.wmax > 4*ad.wmin {
		t.Errorf("window oscillates: samples span %d..%d (> 4x band)", ad.wmin, ad.wmax)
	}
	// And it actually regulated: the settled window must sit well below
	// the 2048 ceiling (capacity × target ≈ 320).
	if ad.wmax > 1024 {
		t.Errorf("window %d never came down toward target x capacity (~320)", ad.wmax)
	}
	if ad.completed < static.completed {
		t.Errorf("adaptive completed %d lookups, static %d — the controller lost throughput",
			ad.completed, static.completed)
	}
}

// TestAdaptiveDegradedClamp: while the backend is degraded the
// controller's window is clamped to DegradedPending — one mechanism,
// the breaker only pulls the same knob — and the clamp's sheds count as
// degraded.
func TestAdaptiveDegradedClamp(t *testing.T) {
	be := &slowBackend{}
	be.deg.Store(true)
	co := NewCoalescer[uint64](be, Options{
		Shards: 1, MaxBatch: 100, Window: time.Hour,
		MaxPending: 64, DegradedPending: 2, MinPending: 4,
		TargetP99: 50 * time.Millisecond,
	})
	a, b := co.Submit(1), co.Submit(2) // occupy the clamped window
	res := <-co.Submit(3)
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("clamped submit = %v, want ErrOverloaded", res.Err)
	}
	if co.Shed() != 1 || co.DegradedShed() != 1 {
		t.Fatalf("Shed/DegradedShed = %d/%d, want 1/1", co.Shed(), co.DegradedShed())
	}
	// Recovery: the moment the backend heals, the full adaptive window
	// is back — the next submission is admitted.
	be.deg.Store(false)
	cch := co.Submit(4)
	select {
	case res := <-cch:
		t.Fatalf("healthy submit failed: %v", res.Err)
	default:
	}
	co.Close()
	for _, ch := range []<-chan Result[uint64]{a, b, cch} {
		if r := <-ch; !errors.Is(r.Err, ErrClosed) {
			t.Fatalf("pending request after Close = %v, want ErrClosed", r.Err)
		}
	}
}

// TestAdaptiveDrainShutdownMidLoad: closing the coalescer while clients
// are mid-overload must not deadlock — every in-flight request resolves
// (result or ErrClosed) and Close returns.
func TestAdaptiveDrainShutdownMidLoad(t *testing.T) {
	be := &slowBackend{per: 5 * time.Millisecond}
	co := NewCoalescer[uint64](be, Options{
		Shards: 1, MaxBatch: 8, Window: 200 * time.Microsecond,
		MaxPending: 256, TargetP99: 10 * time.Millisecond,
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
