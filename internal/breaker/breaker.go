// Package breaker is a small circuit breaker for the hybrid search
// path: it watches the outcome of GPU-sim attempts and, once the error
// rate (or a run of consecutive failures) crosses its threshold, trips
// open so the serving layer stops burning retries against a sick
// device and serves from the CPU-only fallback instead. After
// OpenTimeout a single half-open probe is admitted; its success closes
// the breaker, its failure re-opens it. The state machine is the
// classic Closed -> Open -> HalfOpen -> Closed loop.
//
// The breaker lives in the serving layer (serve.Server), not in the
// tree: snapshot-mode servers replace their tree on every batch update,
// and breaker memory must survive those swaps to be useful.
package breaker

import (
	"sync"
	"sync/atomic"
	"time"
)

// State is the breaker position.
type State int32

// The three breaker states.
const (
	// Closed: attempts flow to the GPU path; outcomes are recorded.
	Closed State = iota
	// Open: attempts are refused until OpenTimeout elapses.
	Open
	// HalfOpen: exactly one probe attempt is in flight; its outcome
	// decides between Closed and Open.
	HalfOpen
)

// String names the state (exposed through STATS).
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Options tunes the trip and recovery thresholds; zero fields take the
// defaults noted on each.
type Options struct {
	// Window is the sliding sample window for the error-rate trip
	// (default 32 outcomes).
	Window int
	// RateThreshold trips the breaker when the windowed error rate
	// reaches it, once MinSamples outcomes are recorded (default 0.5).
	RateThreshold float64
	// MinSamples gates the rate trip so a single early failure cannot
	// open a cold breaker (default 8).
	MinSamples int
	// ConsecutiveTrip opens the breaker after this many back-to-back
	// failures regardless of the windowed rate — the fast path for a
	// hard device outage (default 5).
	ConsecutiveTrip int
	// OpenTimeout is how long the breaker stays open before admitting a
	// half-open probe (default 250ms).
	OpenTimeout time.Duration
}

func (o *Options) fill() {
	if o.Window <= 0 {
		o.Window = 32
	}
	if o.RateThreshold <= 0 {
		o.RateThreshold = 0.5
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 8
	}
	if o.ConsecutiveTrip <= 0 {
		o.ConsecutiveTrip = 5
	}
	if o.OpenTimeout <= 0 {
		o.OpenTimeout = 250 * time.Millisecond
	}
}

// Counters is a snapshot of the breaker's transition bookkeeping.
type Counters struct {
	Trips    int64 // transitions to Open (including half-open probe failures)
	Probes   int64 // half-open probes admitted
	Closes   int64 // recoveries (HalfOpen -> Closed)
	Rejected int64 // attempts refused while Open
}

// Breaker is the circuit breaker. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Breaker struct {
	opt Options
	now func() time.Time // test seam

	state atomic.Int32 // mirrors st for the lock-free Closed fast path

	mu        sync.Mutex
	st        State
	ring      []bool // true = failure
	ringN     int    // samples recorded (<= len(ring))
	ringPos   int
	ringFails int
	consec    int
	openedAt  time.Time
	probing   bool // a half-open probe is in flight
	forced    bool // ForceOpen holds the breaker open

	trips    atomic.Int64
	probes   atomic.Int64
	closes   atomic.Int64
	rejected atomic.Int64
}

// New builds a breaker in the Closed state.
func New(opt Options) *Breaker {
	opt.fill()
	return &Breaker{
		opt:  opt,
		now:  time.Now,
		ring: make([]bool, opt.Window),
	}
}

// Allow reports whether an attempt may proceed on the GPU path. While
// Closed it is a single atomic load — the hot serving path pays no
// lock. While Open it starts the half-open probe once OpenTimeout has
// elapsed; while HalfOpen only the single probe is admitted.
func (b *Breaker) Allow() bool {
	if State(b.state.Load()) == Closed {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case Closed:
		return true
	case Open:
		if !b.forced && b.now().Sub(b.openedAt) >= b.opt.OpenTimeout {
			b.setState(HalfOpen)
			b.probing = true
			b.probes.Add(1)
			return true
		}
		b.rejected.Add(1)
		return false
	default: // HalfOpen
		if b.probing {
			b.rejected.Add(1)
			return false
		}
		b.probing = true
		b.probes.Add(1)
		return true
	}
}

// Success records a successful GPU attempt. A half-open probe's
// success closes the breaker and resets its memory.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case HalfOpen:
		b.resetWindow()
		b.setState(Closed)
		b.probing = false
		b.closes.Add(1)
	case Open:
		// A straggler from before the trip; the open timer governs.
	default:
		b.record(false)
		b.consec = 0
	}
}

// Failure records a faulted GPU attempt, tripping the breaker when the
// consecutive-failure or windowed-rate threshold is crossed. A
// half-open probe's failure re-opens immediately.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.st {
	case HalfOpen:
		b.probing = false
		b.trip()
	case Open:
		// Straggler; already open.
	default:
		b.record(true)
		b.consec++
		if b.consec >= b.opt.ConsecutiveTrip ||
			(b.ringN >= b.opt.MinSamples &&
				float64(b.ringFails)/float64(b.ringN) >= b.opt.RateThreshold) {
			b.trip()
		}
	}
}

// ForceOpen pins the breaker open (on=true) or releases the pin and
// closes it (on=false), so a test can prove the CPU-only fallback
// serves on its own.
func (b *Breaker) ForceOpen(on bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.forced = on
	if on {
		b.setState(Open)
		b.openedAt = b.now()
		b.probing = false
	} else {
		b.resetWindow()
		b.setState(Closed)
	}
}

// State returns the current breaker position.
func (b *Breaker) State() State { return State(b.state.Load()) }

// Counters returns the transition bookkeeping.
func (b *Breaker) Counters() Counters {
	return Counters{
		Trips:    b.trips.Load(),
		Probes:   b.probes.Load(),
		Closes:   b.closes.Load(),
		Rejected: b.rejected.Load(),
	}
}

// trip transitions to Open; callers hold mu.
func (b *Breaker) trip() {
	b.setState(Open)
	b.openedAt = b.now()
	b.trips.Add(1)
	b.resetWindow()
}

// resetWindow clears the sample memory; callers hold mu.
func (b *Breaker) resetWindow() {
	for i := range b.ring {
		b.ring[i] = false
	}
	b.ringN, b.ringPos, b.ringFails, b.consec = 0, 0, 0, 0
}

// record pushes one outcome into the sliding window; callers hold mu.
func (b *Breaker) record(failed bool) {
	if b.ringN == len(b.ring) {
		if b.ring[b.ringPos] {
			b.ringFails--
		}
	} else {
		b.ringN++
	}
	b.ring[b.ringPos] = failed
	if failed {
		b.ringFails++
	}
	b.ringPos = (b.ringPos + 1) % len(b.ring)
}

// setState updates both the locked state and its atomic mirror; callers
// hold mu.
func (b *Breaker) setState(s State) {
	b.st = s
	b.state.Store(int32(s))
}
