package main

import (
	"fmt"
	"runtime"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
)

// coreBuild times core.Build three times and keeps the last tree.
func (l *ladder) coreBuild(opt core.Options) (*core.Tree[uint64], error) {
	var tree *core.Tree[uint64]
	for i := 0; i < 3; i++ {
		if tree != nil {
			tree.Close()
			tree = nil
		}
		runtime.GC() // as the end-to-end set-up does: build into heap the last round freed
		t0 := time.Now()
		t, err := core.Build(l.pairs, opt)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("core.Build: %w", err)
		}
		l.span("core.build", "", i, len(l.pairs), t0, t1)
		tree = t
	}
	l.set("core.build_ns_per_pair", "core.build")
	return tree, nil
}

func (l *ladder) corePoint(t *core.Tree[uint64]) {
	l.pointRung("core.lookup", "serve.lookup", func(_ int, q uint64) (uint64, bool) { return t.Lookup(q) })
	l.set("core.lookup_ns", "core.lookup")
}

// coreBatch replays the batch calls through the three batch entry
// points and reads the virtual clock's account of the plain one.
func (l *ladder) coreBatch(t *core.Tree[uint64]) error {
	size := len(l.batches.Queries[0])
	vals, oks := make([]uint64, size), make([]bool, size)
	top := ""
	if !l.w.Wire {
		top = "hbtree.lookup_batch"
	}
	var t1s, t2s, t3s, t4s, sim, p99 float64
	var host time.Duration
	for i := 0; i < l.nBatch; i++ {
		c := i % len(l.batches.Queries)
		t0 := time.Now()
		st, err := t.LookupBatchInto(l.batches.Queries[c], vals, oks)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("LookupBatchInto: %w", err)
		}
		l.span("core.batch", top, i, size, t0, t1)
		l.checkBatch("core.batch", c, vals, oks)
		host += t1.Sub(t0)
		t1s, t2s, t3s, t4s = t1s+float64(st.T1), t2s+float64(st.T2), t3s+float64(st.T3), t4s+float64(st.T4)
		sim += st.SimTime.Seconds()
		p99 = st.LatencyP99.Micros()
	}
	l.set("core.batch_ns_per_q", "core.batch")
	queries := float64(l.nBatch * size)
	l.put("core.v_mqps", queries/sim/1e6, l.nBatch)
	l.put("core.host_over_virtual", host.Seconds()/sim, l.nBatch)
	l.put("core.v_bucket_p99_us", p99, l.nBatch)
	for i, t := range []float64{t1s, t2s, t3s, t4s} {
		l.put(fmt.Sprintf("core.v_t%d_share", i+1), t/(t1s+t2s+t3s+t4s), l.nBatch)
	}

	for i := 0; i < l.nBatch; i++ {
		c := i % len(l.batches.Queries)
		t0 := time.Now()
		_, err := t.LookupBatchSortedInto(l.batches.Queries[c], vals, oks)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("LookupBatchSortedInto: %w", err)
		}
		l.span("core.batch_sorted", "", i, size, t0, t1)
		l.checkBatch("core.batch_sorted", c, vals, oks)
	}
	l.set("core.batch_sorted_ns_per_q", "core.batch_sorted")

	for i := 0; i < l.nBatch; i++ {
		c := i % len(l.batches.Queries)
		t0 := time.Now()
		t.LookupBatchCPUInto(l.batches.Queries[c], vals, oks)
		t1 := time.Now()
		l.span("core.batch_cpu", "", i, size, t0, t1)
		l.checkBatch("core.batch_cpu", c, vals, oks)
	}
	l.set("core.batch_cpu_ns_per_q", "core.batch_cpu")
	return nil
}

// forcedClones is how many clone-and-update rounds are timed on top of
// the ones the delta path falls back to by itself.
const forcedClones = 8

// coreWrites replays the writes as single-op deltas on a chain of
// forks, as Server.UpdateCtx does, falling back to clone-and-update
// when a batch does not fit the leaf gaps; then it times that clone
// path on its own.
func (l *ladder) coreWrites() error {
	cur, err := core.Build(l.wpairs, writeTreeOptions)
	if err != nil {
		return err
	}
	defer func() { cur.Close() }()
	var plan cpubtree.DeltaPlan[uint64]
	cloneUpdate := func(req int, ops []cpubtree.Op[uint64]) error {
		t0 := time.Now()
		clone, err := cur.Clone()
		if err != nil {
			return fmt.Errorf("Clone: %w", err)
		}
		if _, err := clone.Update(ops, core.Synchronized); err != nil {
			clone.Close()
			return fmt.Errorf("Update: %w", err)
		}
		l.span("core.clone_update", "", req, 1, t0, time.Now())
		cur.Close()
		cur = clone
		return nil
	}
	for i := range l.writes {
		ops := l.writes[i : i+1]
		t0 := time.Now()
		fork, _, ok := cur.ApplyDelta(ops, &plan)
		t1 := time.Now()
		if !ok {
			if err := cloneUpdate(i, ops); err != nil {
				return err
			}
			continue
		}
		l.span("core.apply_delta", "serve.update", i, 1, t0, t1)
		cur.Close()
		cur = fork
	}
	l.checkWrites("core.apply_delta", func(k uint64) (uint64, bool) { return cur.Lookup(k) })
	for i := 0; i < forcedClones && i < len(l.writes); i++ {
		// Replaying a write that is already applied changes nothing a
		// reader sees, and costs the clone path the same.
		if err := cloneUpdate(len(l.writes)+i, l.writes[len(l.writes)-1:]); err != nil {
			return err
		}
	}
	l.set("core.apply_delta_ns", "core.apply_delta")
	l.set("core.clone_update_ns", "core.clone_update")
	return nil
}
