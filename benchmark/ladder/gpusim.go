package main

import (
	"fmt"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/gpusim"
)

// implicitDesc describes an implicit tree's I-segment to the kernels,
// as core does when it mirrors the segment to the device.
func implicitDesc(impl *cpubtree.ImplicitTree[uint64]) (iseg []uint64, desc gpusim.ImplicitDesc) {
	inner, levelOff, kpn, fanout := impl.InnerArray()
	off := make([]int32, len(levelOff))
	for i, o := range levelOff {
		off[i] = int32(o)
	}
	geom := impl.LevelGeometry()
	levels := make([]gpusim.LevelGeom, len(geom))
	for i, g := range geom {
		levels[i] = gpusim.LevelGeom{Off: int32(g.Slot), Kpn: int32(g.Kpn), Fanout: int32(g.Fanout), Lines: int32(g.Kpn / kpn)}
	}
	return inner, gpusim.ImplicitDesc{LevelOff: off, Kpn: kpn, Fanout: fanout, Height: impl.Height(),
		NumLeaves: impl.NumLeafLines(), Levels: levels}
}

// buckets calls fn for every bucket-sized slice of batch call i.
func (l *ladder) buckets(t *core.Tree[uint64], fn func(i, c, lo, hi int) error) error {
	m := t.Options().BucketSize
	for i := 0; i < l.nBatch; i++ {
		c := i % len(l.batches.Queries)
		n := len(l.batches.Queries[c])
		for lo := 0; lo < n; lo += m {
			if err := fn(i, c, lo, min(lo+m, n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// gpusimRungs times the device stage of a batch bucket by bucket: the
// two staging copies, the inner-level kernel, and the shared-descent
// kernel on the same bucket sorted. Transaction counts are exact.
func (l *ladder) gpusimRungs(t *core.Tree[uint64]) error {
	impl, dev := t.Implicit(), t.Device()
	iseg, desc := implicitDesc(impl)
	m := t.Options().BucketSize
	qbuf, err := gpusim.Malloc[uint64](dev, m)
	if err != nil {
		return fmt.Errorf("gpusim.Malloc: %w", err)
	}
	defer qbuf.Free()
	rbuf, err := gpusim.Malloc[int32](dev, 2*m)
	if err != nil {
		return fmt.Errorf("gpusim.Malloc: %w", err)
	}
	defer rbuf.Free()
	res := make([]int32, 2*m)
	var trans, transSorted, queries int64
	err = l.buckets(t, func(i, c, lo, hi int) error {
		bq, bn := l.batches.Queries[c][lo:hi], hi-lo
		t0 := time.Now()
		if _, err := qbuf.CopyFromHost(bq); err != nil {
			return fmt.Errorf("CopyFromHost: %w", err)
		}
		if _, err := rbuf.CopyToHost(res[:2*bn]); err != nil {
			return fmt.Errorf("CopyToHost: %w", err)
		}
		t1 := time.Now()
		l.span("gpusim.copy", "core.batch", i, bn, t0, t1)

		t0 = time.Now()
		n, err := gpusim.ImplicitSearchKernel(dev, iseg, desc, qbuf.Data()[:bn], rbuf.Data()[:bn], 0, nil)
		t1 = time.Now()
		if err != nil {
			return fmt.Errorf("ImplicitSearchKernel: %w", err)
		}
		l.span("gpusim.kernel", "core.batch", i, bn, t0, t1)
		trans += n
		queries += int64(bn)

		sq := l.sortedBucket(c, lo, hi).q
		t0 = time.Now()
		n, err = gpusim.ImplicitSearchKernelSorted(dev, iseg, desc, sq, rbuf.Data()[:bn], nil)
		t1 = time.Now()
		if err != nil {
			return fmt.Errorf("ImplicitSearchKernelSorted: %w", err)
		}
		l.span("gpusim.kernel_sorted", "core.batch_sorted", i, bn, t0, t1)
		transSorted += n
		return nil
	})
	if err != nil {
		return err
	}
	l.set("gpusim.copy_ns_per_q", "gpusim.copy")
	l.set("gpusim.kernel_ns_per_q", "gpusim.kernel")
	l.set("gpusim.kernel_sorted_ns_per_q", "gpusim.kernel_sorted")
	l.put("gpusim.trans_per_q", float64(trans)/float64(queries), int(queries))
	l.put("gpusim.trans_sorted_per_q", float64(transSorted)/float64(queries), int(queries))
	return nil
}
