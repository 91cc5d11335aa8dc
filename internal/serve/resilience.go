package serve

import (
	"errors"
	"math/rand/v2"
	"time"

	"hbtree/internal/breaker"
	"hbtree/internal/core"
	"hbtree/internal/fault"
)

// ErrDeadlineExceeded is returned when a request's context expires
// before the serving layer could complete it: a parked coalesced GET
// whose flush never came, or an update abandoned while waiting for the
// writer slot. It is distinct from ErrOverloaded (admission refused
// immediately — retry later) and ErrClosed (the server is shutting
// down — do not retry here).
var ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")

// RetryOptions bounds the GPU-path retry loop that runs before a batch
// degrades to the CPU-only fallback. A standalone Server takes one
// through SetResilience; every shard of a ShardedServer runs the
// defaults with its own breaker.
type RetryOptions struct {
	// MaxAttempts is the total number of GPU-path attempts per batch
	// (first try included). Default 3.
	MaxAttempts int
	// BackoffBase is the pre-jitter delay before the first retry; each
	// further retry doubles it up to BackoffMax. The defaults are small
	// (100µs base, 2ms cap) — the injected faults the loop rides out are
	// transient by construction, and batch flushes sit on the request
	// path.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (r *RetryOptions) fill() {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 100 * time.Microsecond
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = 2 * time.Millisecond
	}
}

// SetResilience replaces the server's breaker and retry policy. Call
// before serving traffic; the breaker swap is not synchronised with
// in-flight batches.
func (s *Server[K]) SetResilience(b breaker.Options, r RetryOptions) {
	r.fill()
	s.brk = breaker.New(b)
	s.retry = r
}

// Breaker exposes the server's circuit breaker (tests force it open to
// measure pure-fallback throughput).
func (s *Server[K]) Breaker() *breaker.Breaker { return s.brk }

// backoff sleeps the jittered exponential delay before retry `attempt`
// (1-based): base<<(attempt-1) capped at BackoffMax, jittered uniformly
// over [d/2, 3d/2) so synchronised clients decorrelate.
func (s *Server[K]) backoff(attempt int) {
	d := s.retry.BackoffBase << (attempt - 1)
	if d > s.retry.BackoffMax || d <= 0 {
		d = s.retry.BackoffMax
	}
	time.Sleep(d/2 + time.Duration(rand.Int64N(int64(d))))
}

// lookupBatchResilient answers one batch with the degraded-mode
// discipline: try the shared-descent GPU path while the breaker admits
// it, retrying injected faults with jittered backoff; past the retry
// budget — or with the breaker open — answer from the host-resident
// tree instead, whatever the tree's plan (a load-balanced tree falls
// back like any other). Structural (non-injected) errors surface
// unchanged. The caller still holds its snapshot pin, so the fallback
// reads the same version the GPU attempt did.
func (s *Server[K]) lookupBatchResilient(tree *core.Tree[K], queries []K, values []K, found []bool) (core.SearchStats, error) {
	for attempt := 1; attempt <= s.retry.MaxAttempts && s.brk.Allow(); attempt++ {
		if attempt > 1 {
			s.retries.Add(1)
			s.backoff(attempt - 1)
		}
		stats, err := tree.LookupBatchSortedInto(queries, values, found)
		if err == nil {
			s.brk.Success()
			return stats, nil
		}
		if !fault.Is(err) {
			return stats, err
		}
		s.brk.Failure()
		s.gpuFaults.Add(1)
	}
	stats := tree.LookupBatchCPUInto(queries, values, found)
	s.fbBatches.Add(1)
	s.fbQueries.Add(int64(len(queries)))
	return stats, nil
}

// worseState orders breaker states by degradation for the sharded
// aggregate: open > half-open > closed.
func worseState(a, b breaker.State) breaker.State {
	rank := func(st breaker.State) int {
		switch st {
		case breaker.Open:
			return 2
		case breaker.HalfOpen:
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}
