// Command hbladder is the per-layer half of the benchmark: it replays a
// workload's seeded op stream at each layer's public entry point —
// serve, wal, core, gpusim, cpubtree, keys, simd — timing every call
// from outside, and prints the per-layer metrics as one JSON object.
// The benchmark's traced run starts it as a subprocess and joins its
// spans with the wire spans it recorded itself.
//
// It is the only part of the benchmark that imports hbtree/internal;
// each layer's calls sit in the file named after the layer, so an API
// change in one layer touches one file here.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"hbtree"
	"hbtree/benchmark/kit"
	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
)

// ladder is the state the rungs share.
type ladder struct {
	w       kit.Workload
	seed    uint64
	smoke   bool
	workDir string

	pairs   []keys.Pair[uint64]
	gets    []uint64 // conn 0's first GET keys, a whole number of blocks
	getWant []uint64 // what each of them must answer on a static read tree
	getOK   []bool
	getsB   []uint64              // conn 1's, for rungs that need two callers
	writes  []cpubtree.Op[uint64] // conn 0's first PUT/DEL ops of the mixed stream
	wpairs  []keys.Pair[uint64]   // dataset of the write rungs (at most 2^20 pairs)
	batches *kit.Batches
	nBatch  int // batch calls replayed per batch rung
	sorted  map[[3]int]*bucket

	origin time.Time
	spans  []kit.Span
	out    kit.LadderOutput
}

func main() {
	var (
		name    = flag.String("workload", "", "workload whose stream and dataset size the rungs use")
		seed    = flag.Uint64("seed", 1, "op-stream seed")
		smoke   = flag.Bool("smoke", false, "tiny datasets and op counts")
		ops     = flag.Int("ops", 200000, "point ops replayed per rung (rounded down to whole blocks)")
		nWrites = flag.Int("writes", 400, "PUT/DEL ops replayed per write rung")
		workDir = flag.String("workdir", "", "scratch directory for WAL and data dirs (removed by the caller)")
		traceTo = flag.String("trace-out", "", "file to write the spans to")
	)
	flag.Parse()
	w, ok := kit.Find(*name)
	if !ok || *workDir == "" {
		fmt.Fprintln(os.Stderr, "hbladder: need -workload <name> and -workdir <dir>")
		os.Exit(2)
	}
	l := &ladder{w: w, seed: *seed, smoke: *smoke, workDir: *workDir, nBatch: kit.LadderBatches,
		origin: time.Now(), out: kit.LadderOutput{Metrics: map[string]kit.LadderValue{}}}
	if err := l.run(*ops, *nWrites); err != nil {
		fmt.Fprintf(os.Stderr, "hbladder: %v\n", err)
		os.Exit(1)
	}
	if *traceTo != "" {
		if err := kit.WriteTrace(*traceTo, w.Name, *seed, l.spans); err != nil {
			fmt.Fprintf(os.Stderr, "hbladder: %v\n", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(l.out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbladder: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// maxWritePairs caps the dataset of the write rungs: the write path is
// only ever served on wire-mixed-durable's 2^20 pairs.
const maxWritePairs = 1 << 20

func (l *ladder) run(ops, nWrites int) error {
	n := l.w.Pairs(l.smoke)
	l.pairs = hbtree.GeneratePairs[uint64](n, kit.DatasetSeed)
	l.wpairs = l.pairs
	if n > maxWritePairs {
		l.wpairs = hbtree.GeneratePairs[uint64](maxWritePairs, kit.DatasetSeed)
	}
	if l.smoke {
		ops, nWrites, l.nBatch = 2048, 24, 4
	}
	ops -= ops % kit.Block
	l.gets = getKeys(kit.NewStream(l.pairs, l.seed, 0, l.w.Mixed), ops)
	l.getsB = getKeys(kit.NewStream(l.pairs, l.seed, 1, l.w.Mixed), ops)
	// The read trees are static, so a key is found exactly when it is
	// stored, whatever the mixed stream's model says.
	l.getWant, l.getOK = make([]uint64, len(l.gets)), make([]bool, len(l.gets))
	for i, q := range l.gets {
		if kit.InDataset(l.pairs, q) {
			l.getWant[i], l.getOK[i] = hbtree.ValueFor(q), true
		}
	}
	st := kit.NewStream(l.wpairs, l.seed, 0, true)
	for len(l.writes) < nWrites {
		if op := st.Next(); op.Kind != kit.Get {
			l.writes = append(l.writes, cpubtree.Op[uint64]{Key: op.Key, Value: op.Val, Delete: op.Kind == kit.Del})
		}
	}
	size := kit.BatchQueries
	if l.smoke {
		size = 4096
	}
	l.batches = kit.NewBatches(l.pairs, l.seed, kit.BatchSets, size)

	// The read rungs run on the tree the workload's server would build.
	opt := core.Options{}
	switch {
	case l.w.Mixed:
		opt = writeTreeOptions
	case l.w.Coalesce:
		opt.Layout = core.LayoutTuned // what hbserve -coalesce selects for the implicit variant
	}
	tree, err := l.coreBuild(opt)
	if err != nil {
		return err
	}
	l.cpubtreeBuild(tree)
	srv := l.servePoint(tree) // owns tree from here on
	defer srv.Close()
	l.corePoint(tree)
	l.cpubtreePoint(tree)
	l.simdSearch()

	// The batch rungs need the implicit organisation (the kernels and
	// leaf batches they call directly are its); the mixed workload's
	// read tree is regular, so it gets an implicit one beside it.
	btree, bsrv := tree, srv
	if l.w.Mixed {
		if btree, err = core.Build(l.pairs, core.Options{}); err != nil {
			return err
		}
		bsrv = l.serveWrap(btree)
		defer bsrv.Close()
	}
	if err := l.coreBatch(btree); err != nil {
		return err
	}
	if err := l.gpusimRungs(btree); err != nil {
		return err
	}
	l.cpubtreeBatch(btree)
	l.keysSort()
	if err := l.serveCoalesce(bsrv); err != nil {
		return err
	}
	if err := l.serveWrites(); err != nil {
		return err
	}
	if err := l.coreWrites(); err != nil {
		return err
	}
	if err := l.walRungs(); err != nil {
		return err
	}
	l.derive()
	return nil
}

// getKeys returns the keys of the stream's first n GETs.
func getKeys(st *kit.Stream, n int) []uint64 {
	ks := make([]uint64, 0, n)
	for len(ks) < n {
		if op := st.Next(); op.Kind == kit.Get {
			ks = append(ks, op.Key)
		}
	}
	return ks
}

// span records one timed call.
func (l *ladder) span(name, parent string, req, n int, t0, t1 time.Time) {
	l.spans = append(l.spans, kit.Span{Name: name, Parent: parent, Req: req, N: n,
		Start: int64(t0.Sub(l.origin)), End: int64(t1.Sub(l.origin))})
}

// set records the median time per op of the named rung as a metric.
func (l *ladder) set(metric, rung string) {
	p50, groups := kit.PerOpP50(l.spans, rung)
	l.out.Metrics[metric] = kit.LadderValue{Value: p50, Samples: groups}
}

func (l *ladder) put(metric string, v float64, samples int) {
	l.out.Metrics[metric] = kit.LadderValue{Value: v, Samples: samples}
}

func (l *ladder) failf(format string, args ...any) {
	l.out.Failed++
	if l.out.FirstError == "" {
		l.out.FirstError = fmt.Sprintf(format, args...)
	}
}

// pointRung times call over the GET keys one block per span, then
// checks every answer outside the timed region.
func (l *ladder) pointRung(name, parent string, call func(i int, q uint64) (uint64, bool)) {
	vals := make([]uint64, kit.Block)
	oks := make([]bool, kit.Block)
	for b := 0; b+kit.Block <= len(l.gets); b += kit.Block {
		block := l.gets[b : b+kit.Block]
		t0 := time.Now()
		for i, q := range block {
			vals[i], oks[i] = call(b+i, q)
		}
		t1 := time.Now()
		l.span(name, parent, b/kit.Block, kit.Block, t0, t1)
		for i := range block {
			l.checkPoint(name, b+i, vals[i], oks[i])
		}
	}
}

// blockRung is pointRung for calls with nothing to check.
func (l *ladder) blockRung(name, parent string, call func(i int, q uint64)) {
	for b := 0; b+kit.Block <= len(l.gets); b += kit.Block {
		t0 := time.Now()
		for i, q := range l.gets[b : b+kit.Block] {
			call(b+i, q)
		}
		l.span(name, parent, b/kit.Block, kit.Block, t0, time.Now())
	}
}

// checkBatch compares one batch result with the model.
func (l *ladder) checkBatch(name string, c int, values []uint64, found []bool) {
	l.out.Attempted += len(found)
	if bad := l.batches.Mismatches(c, values, found); bad > 0 {
		l.out.Failed += bad
		if l.out.FirstError == "" {
			l.out.FirstError = fmt.Sprintf("%s: batch %d: %d results differ from the model", name, c, bad)
		}
	}
}

// derive computes the metrics that are differences or ratios of rungs.
func (l *ladder) derive() {
	rows := kit.SelfTimes(l.spans)
	self := func(name string) (float64, int) {
		for _, r := range rows {
			if r.Name == name {
				return r.SelfP50, r.Groups
			}
		}
		return 0, 0
	}
	v, n := self("core.batch")
	l.put("core.sched_self_ns_per_q", v, n)
	v, n = self("serve.coalesce")
	l.put("serve.window_wait_ns", v, n)
	v, n = self("serve.durable_update")
	l.put("serve.fsync_wait_ns", v, n)
}

// checkPoint checks the answer to GET key i.
func (l *ladder) checkPoint(name string, i int, v uint64, ok bool) {
	l.out.Attempted++
	if ok != l.getOK[i] || (ok && v != l.getWant[i]) {
		l.failf("%s: key %d: got (%d, %t), want (%d, %t)", name, l.gets[i], v, ok, l.getWant[i], l.getOK[i])
	}
}

// bucket is one bucket-sized slice of a query batch with its answers.
type bucket struct {
	q    []uint64
	want []uint64
	ok   []bool
}

// check compares a bucket's results with its answers.
func (l *ladder) check(name string, b *bucket, values []uint64, found []bool) {
	l.out.Attempted += len(b.q)
	for i := range b.q {
		if found[i] != b.ok[i] || (found[i] && values[i] != b.want[i]) {
			l.failf("%s: key %d: got (%d, %t), want (%d, %t)", name, b.q[i], values[i], found[i], b.want[i], b.ok[i])
		}
	}
}

// plainBucket returns queries [lo, hi) of batch c.
func (l *ladder) plainBucket(c, lo, hi int) *bucket {
	return &bucket{q: l.batches.Queries[c][lo:hi], want: l.batches.Values[c][lo:hi], ok: l.batches.Found[c][lo:hi]}
}

// sortedBucket returns the same queries in ascending order, the form a
// bucket has when the shared-descent path hands it on.
func (l *ladder) sortedBucket(c, lo, hi int) *bucket {
	key := [3]int{c, lo, hi}
	if b, ok := l.sorted[key]; ok {
		return b
	}
	p := l.plainBucket(c, lo, hi)
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(p.q[a], p.q[b]) })
	b := &bucket{q: make([]uint64, len(idx)), want: make([]uint64, len(idx)), ok: make([]bool, len(idx))}
	for i, j := range idx {
		b.q[i], b.want[i], b.ok[i] = p.q[j], p.want[j], p.ok[j]
	}
	if l.sorted == nil {
		l.sorted = make(map[[3]int]*bucket)
	}
	l.sorted[key] = b
	return b
}
