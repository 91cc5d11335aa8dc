package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hbtree/benchmark/kit"
	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/serve"
)

// Defaults of the hbserve flags the frozen surface leaves alone; the
// rungs mirror them so they time what the server runs.
const (
	coalesceWindow = 100 * time.Microsecond // -coalesce-window
	fsyncInterval  = 2 * time.Millisecond   // -fsync-interval
)

func (l *ladder) serveWrap(t *core.Tree[uint64]) *serve.Server[uint64] { return serve.NewServer(t) }

// servePoint wraps the read tree in a Server and times Server.Lookup,
// the whole of a GET below the wire on a server that does not coalesce.
func (l *ladder) servePoint(t *core.Tree[uint64]) *serve.Server[uint64] {
	srv := l.serveWrap(t)
	parent := ""
	if l.w.Wire && !l.w.Coalesce {
		parent = "hbserve.get"
	}
	l.pointRung("serve.lookup", parent, func(_ int, q uint64) (uint64, bool) { return srv.Lookup(q) })
	l.set("serve.lookup_ns", "serve.lookup")
	return srv
}

// serveCoalesce times Coalescer.Lookup from as many goroutines as the
// workload has connections — a request can have no more batch
// companions than that — and then, for the same keys, the one-key
// sorted batch that is the work inside the window. What is left of the
// first after the second is the wait.
func (l *ladder) serveCoalesce(srv *serve.Server[uint64]) error {
	co := serve.NewCoalescer[uint64](srv, serve.Options{Window: coalesceWindow})
	defer co.Close()
	budget := 2 * time.Second
	if l.smoke {
		budget = 100 * time.Millisecond
	}
	parent := ""
	if l.w.Coalesce {
		parent = "hbserve.get"
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	if l.w.Conns > 1 { // the second caller: same stream as connection 1, untimed
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, _, err := co.Lookup(l.getsB[i%len(l.getsB)]); err != nil {
					return
				}
			}
		}()
	}
	start := time.Now()
	done := 0
	var firstErr error
	for i, q := range l.gets {
		t0 := time.Now()
		if t0.Sub(start) > budget {
			break
		}
		v, ok, err := co.Lookup(q)
		t1 := time.Now()
		if err != nil {
			firstErr = fmt.Errorf("Coalescer.Lookup: %w", err)
			break
		}
		l.span("serve.coalesce", parent, i/kit.Block, 1, t0, t1)
		l.checkPoint("serve.coalesce", i, v, ok)
		done++
	}
	stop.Store(true)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	l.set("serve.coalesce_ns", "serve.coalesce")
	if b := co.Batches(); b > 0 {
		l.put("serve.coalesce_batch_mean", float64(co.Queries())/float64(b), int(b))
	}

	one, v1, f1 := make([]uint64, 1), make([]uint64, 1), make([]bool, 1)
	for i, q := range l.gets[:done] {
		one[0] = q
		t0 := time.Now()
		_, err := srv.LookupBatchSortedInto(one, v1, f1)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("LookupBatchSortedInto: %w", err)
		}
		l.span("serve.batch1", "serve.coalesce", i/kit.Block, 1, t0, t1)
		l.checkPoint("serve.batch1", i, v1[0], f1[0])
	}

	const size = 256 // the window size the ROADMAP's serving numbers use
	vals, oks := make([]uint64, size), make([]bool, size)
	for b := 0; b+size <= len(l.gets) && b < 200*size; b += size {
		chunk := l.gets[b : b+size]
		t0 := time.Now()
		_, err := srv.LookupBatchSortedInto(chunk, vals, oks)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("LookupBatchSortedInto: %w", err)
		}
		l.span("serve.batch256", "", b/size, size, t0, t1)
		for i := range chunk {
			l.checkPoint("serve.batch256", b+i, vals[i], oks[i])
		}
	}
	l.set("serve.batch256_ns_per_q", "serve.batch256")
	return nil
}

// writeTreeOptions is the tree wire-mixed-durable's server builds.
var writeTreeOptions = core.Options{Variant: core.Regular, LeafFill: 0.875}

// serveWrites times the write path of the serving layer one op at a
// time, as a PUT arrives: Server.UpdateCtx, reads beside a writer, and
// Durable.UpdateCtx with the server's group-commit window.
func (l *ladder) serveWrites() error {
	ctx := context.Background()
	tree, err := core.Build(l.wpairs, writeTreeOptions)
	if err != nil {
		return err
	}
	srv := serve.NewServer(tree)
	defer srv.Close()
	for i := range l.writes {
		t0 := time.Now()
		_, err := srv.UpdateCtx(ctx, l.writes[i:i+1], core.Synchronized)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("Server.UpdateCtx: %w", err)
		}
		l.span("serve.update", "serve.durable_update", i, 1, t0, t1)
	}
	l.set("serve.update_ns", "serve.update")
	l.checkWrites("serve.update", srv.Lookup)
	m := srv.Metrics()
	if total := m.InPlaceApplied + m.CloneFallbacks; total > 0 {
		l.put("serve.inplace_share", float64(m.InPlaceApplied)/float64(total), int(total))
	}
	l.put("serve.cloned_bytes_per_put", float64(m.ClonedBytes)/float64(len(l.writes)), len(l.writes))

	// Reads beside a writer: a second goroutine overwrites the written
	// keys in a loop while this one times Server.Lookup. The writer
	// changes values under the reads, so these answers are not checked.
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	var writeErr error
	go func() {
		defer wg.Done()
		op := make([]cpubtree.Op[uint64], 1)
		for i := 0; !stop.Load(); i++ {
			op[0] = cpubtree.Op[uint64]{Key: l.writes[i%len(l.writes)].Key, Value: uint64(i)}
			if _, err := srv.UpdateCtx(ctx, op, core.Synchronized); err != nil {
				writeErr = err
				return
			}
		}
	}()
	budget := time.Second
	if l.smoke {
		budget = 50 * time.Millisecond
	}
	start := time.Now()
	for b := 0; b+kit.Block <= len(l.gets) && time.Since(start) < budget; b += kit.Block {
		t0 := time.Now()
		for _, q := range l.gets[b : b+kit.Block] {
			srv.Lookup(q)
		}
		l.span("serve.read_during_write", "", b/kit.Block, kit.Block, t0, time.Now())
	}
	stop.Store(true)
	wg.Wait()
	if writeErr != nil {
		return fmt.Errorf("Server.UpdateCtx beside reads: %w", writeErr)
	}
	l.set("serve.read_during_write_ns", "serve.read_during_write")

	d, err := serve.OpenDurable(serve.DurableOptions{Dir: filepath.Join(l.workDir, "durable"), FsyncInterval: fsyncInterval},
		writeTreeOptions, 1, func() ([]keys.Pair[uint64], error) { return l.wpairs, nil })
	if err != nil {
		return fmt.Errorf("OpenDurable: %w", err)
	}
	for i := range l.writes {
		t0 := time.Now()
		_, err := d.UpdateCtx(ctx, l.writes[i:i+1], core.Synchronized)
		t1 := time.Now()
		if err != nil {
			d.Close()
			d.Server().Close()
			return fmt.Errorf("Durable.UpdateCtx: %w", err)
		}
		l.span("serve.durable_update", "hbserve.put", i, 1, t0, t1)
	}
	l.set("serve.durable_update_ns", "serve.durable_update")
	l.checkWrites("serve.durable_update", d.Server().Lookup)
	err = d.Close()
	d.Server().Close()
	if err != nil {
		return fmt.Errorf("Durable.Close: %w", err)
	}
	return nil
}

// checkWrites reads every written key back and compares it with the
// last op replayed on it.
func (l *ladder) checkWrites(name string, lookup func(uint64) (uint64, bool)) {
	last := make(map[uint64]cpubtree.Op[uint64], len(l.writes))
	for _, op := range l.writes {
		last[op.Key] = op
	}
	for k, op := range last {
		l.out.Attempted++
		v, ok := lookup(k)
		if ok == op.Delete || (ok && v != op.Value) {
			l.failf("%s: key %d: got (%d, %t) after %+v", name, k, v, ok, op)
		}
	}
}
