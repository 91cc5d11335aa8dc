package hbtree

import (
	"hbtree/internal/serve"
)

// This file is the facade over internal/serve: the concurrency layer
// that makes a Tree safe to share between goroutines. A bare Tree
// follows the package's single-writer contract (see the package
// documentation); NewServer publishes it behind an epoch-versioned
// snapshot registry (readers never block on batch updates or rebuilds),
// NewShardedServer spreads it across key-range shards of that one
// engine, and a Coalescer batches concurrent point lookups into the
// bucket-sized LookupBatch calls the heterogeneous search path is built
// for.

// ErrServerClosed is returned by a Coalescer for requests it can no
// longer serve after Close.
var ErrServerClosed = serve.ErrClosed

// ErrServerOverloaded is returned, as this very value, by a Coalescer
// for requests shed by admission control (CoalescerOptions.MaxPending
// with Shed set, or half of it while the server is degraded): the
// in-flight window was full, the request was never queued, and the
// caller may retry or degrade.
var ErrServerOverloaded = serve.ErrOverloaded

// ErrDeadlineExceeded is returned when a request's context expires
// before the serving layer could complete it — a parked coalesced
// lookup whose flush never came, or an update abandoned while waiting
// for the writer slot. Unlike ErrServerOverloaded it does not imply the
// server refused the work; the request simply ran out of time.
var ErrDeadlineExceeded = serve.ErrDeadlineExceeded

// CoalescerOptions configures Server.Coalesce: the batch size and the
// window (the longest a request waits for companions — blocking callers
// are flushed as soon as the engine is free), the shard count across
// which submissions spread, and the static admission window: MaxPending
// undelivered requests, with Shed choosing fail-fast over backpressure
// past it, clamped to half of it while the server is degraded.
type CoalescerOptions = serve.Options

// ServerMetrics is a snapshot of a Server's serving counters, including
// the accumulated virtual serving time that makes per-request and
// coalesced serving comparable on the paper's calibrated clock.
type ServerMetrics = serve.Metrics

// Server makes a Tree safe for concurrent use: read operations (point,
// range and batch lookups, scans, stats) run concurrently against the
// current snapshot; Update and Rebuild construct a successor version
// aside and atomically publish it, so readers are never blocked for the
// duration of a batch write.
//
// A Server partitions the key space across T shard trees behind one
// epoch-versioned snapshot registry — one shard from NewServer, T from
// NewShardedServer. Writers clone 1/T of the data, shards rebuild
// concurrently, point lookups route by key allocation-free, and range
// reads stitch ordered results across shard boundaries. Scan and
// RangeQuery are per-shard consistent; ScanConsistent and
// RangeQueryConsistent pin a single registry epoch across every shard
// for one atomic cross-shard cut — see DESIGN §6 for the consistency
// matrix.
//
// The shard layout changes only on command: SplitShard and MergeShards
// retile the key space online through single epoch transitions (no
// stop-the-world), and RebalanceStats reports what they did.
type Server[K Key] struct {
	*serve.Server[K]
}

// NewServer serves t as one shard behind the snapshot-read contract,
// adopting it as built. The tree must not be used directly while the
// server is serving; closing the server also closes the tree.
func NewServer[K Key](t *Tree[K]) *Server[K] {
	return &Server[K]{serve.NewServer(t.Tree)}
}

// NewShardedServer serves t as `shards` shards (zero or negative selects
// GOMAXPROCS) and takes ownership of it: one shard adopts t as built,
// more reshard its pairs across that many trees on t's simulated device
// and close t. The tree must not be used, or closed, afterwards.
func NewShardedServer[K Key](t *Tree[K], shards int) (*Server[K], error) {
	s, err := serve.NewShardedServer(t.Tree, shards)
	if err != nil {
		return nil, err
	}
	return &Server[K]{s}, nil
}

// Sharded is shorthand for NewShardedServer(t, shards).
func (t *Tree[K]) Sharded(shards int) (*Server[K], error) {
	return NewShardedServer(t, shards)
}

// Coalescer batches concurrent point lookups into LookupBatch calls:
// a batch leaves when it is full, when a blocking caller finds no flush
// running, when the flush it queued behind finishes, or at the window
// deadline — so batch size follows load. Each sorted batch is split
// into one run per shard when it is flushed. LookupGroup submits
// several lookups as one blocking call. Obtain one with Server.Coalesce
// or Tree.Coalesced, and Close it to release its flusher goroutines.
type Coalescer[K Key] struct {
	*serve.Coalescer[K]
}

// Coalesce starts a request coalescer over the server.
func (s *Server[K]) Coalesce(opt CoalescerOptions) *Coalescer[K] {
	return &Coalescer[K]{s.Server.Coalesce(opt)}
}

// Coalesced wraps the tree in a Server and a default-configured
// Coalescer (batch = the tree's bucket size, 100µs window): the
// one-call path to concurrency-safe, batch-amortised serving. The
// caller must Close the coalescer when done; closing the server also
// closes the tree.
func (t *Tree[K]) Coalesced() (*Server[K], *Coalescer[K]) {
	s := NewServer(t)
	return s, s.Coalesce(CoalescerOptions{})
}

// RebalanceStats reports a Server's retiling state: the registry epoch,
// split-key table generation and current shard count from one registry
// state, and the split/merge counters.
type RebalanceStats = serve.RebalanceStats

// DurableOptions configures OpenDurable: the data directory, the WAL
// group-commit window and the background snapshot period. The WAL has
// one partition per shard of the first boot, fixed for the life of the
// directory.
type DurableOptions = serve.DurableOptions

// RecoveryStats reports what a Durable's recovery did at open: the
// snapshot epoch it bulk-loaded, the shard layout it restored, and the
// WAL tail it replayed past the snapshot floor.
type RecoveryStats = serve.RecoveryStats

// PersistMetrics is a snapshot of a Durable's WAL and snapshot counters.
type PersistMetrics = serve.PersistMetrics

// Durable fronts a Server with write-ahead logging and
// epoch-aligned snapshots (DESIGN §8): every update batch is logged and
// group-commit fsynced BEFORE it is applied and acked, snapshots pin one
// registry epoch across every shard and truncate the log below the
// covered floor, and recovery bulk-loads the snapshot images bottom-up
// and replays only the WAL tail. Reads go straight to the wrapped
// server; writes MUST go through the Durable to survive a crash.
type Durable[K Key] struct {
	*serve.Durable[K]
}

// OpenDurable opens (or creates) the durable serving stack in dopt.Dir.
// A directory holding a committed snapshot is recovered — shard trees
// bulk-loaded from images, layout restored from the manifest (shards is
// ignored), WAL tails replayed; otherwise seed() provides the initial
// sorted pairs and an initial snapshot is committed. An implicit build
// may keep the seed pairs as its leaf segment; do not modify them
// afterwards. Close the Durable first, then the wrapped server.
func OpenDurable[K Key](dopt DurableOptions, opt Options, shards int, seed func() ([]Pair[K], error)) (*Durable[K], error) {
	d, err := serve.OpenDurable(dopt, opt, shards, seed)
	if err != nil {
		return nil, err
	}
	return &Durable[K]{d}, nil
}

// Server returns the wrapped server, whatever its shard count: reads
// go to it, writes through the Durable.
func (d *Durable[K]) Server() *Server[K] {
	return &Server[K]{d.Durable.Server()}
}
