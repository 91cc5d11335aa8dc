package cpubtree

import (
	"hbtree/internal/keys"
	"hbtree/internal/simd"
)

// Cursor is a forward iterator over a tree's pairs in key order. Both
// tree organisations provide one; the HB+-tree and the public API expose
// them for streaming scans whose extent is not known up front (unlike
// RangeQuery's fixed count).
//
// A cursor is a read-only view: using it concurrently with updates is
// not supported (the paper's use cases separate lookup and bulk-update
// phases).
type Cursor[K keys.Key] interface {
	// Next returns the next pair, or ok=false when the scan is done.
	Next() (p keys.Pair[K], ok bool)
}

// implicitCursor walks the implicit tree's sequential leaf lines.
type implicitCursor[K keys.Key] struct {
	t    *ImplicitTree[K]
	line int
	idx  int
}

// Seek returns a cursor positioned at the first key >= start.
func (t *ImplicitTree[K]) Seek(start K) Cursor[K] {
	l := t.SearchInner(start)
	i, _ := simd.SearchPairsLine(t.leafLine(l), start)
	return &implicitCursor[K]{t: t, line: l, idx: i}
}

// Next implements Cursor.
func (c *implicitCursor[K]) Next() (keys.Pair[K], bool) {
	maxK := keys.Max[K]()
	for c.line < c.t.numLeaves {
		line := c.t.leafLine(c.line)
		for c.idx < c.t.pairsLine {
			k := line[2*c.idx]
			if k == maxK {
				// Padding: the data ends here.
				c.line = c.t.numLeaves
				return keys.Pair[K]{}, false
			}
			p := keys.Pair[K]{Key: k, Value: line[2*c.idx+1]}
			c.idx++
			return p, true
		}
		c.line++
		c.idx = 0
	}
	return keys.Pair[K]{}, false
}

// regularCursor walks the regular tree's big-leaf chain, merging each
// leaf's delta region (delta.go) into the packed base pairs on the fly
// so the stream stays sorted with tombstones suppressed.
type regularCursor[K keys.Key] struct {
	t    *RegularTree[K]
	leaf int32
	pos  int // next base pair position

	scan     leafScan[K] // merged delta view of scanLeaf
	di       int         // next delta entry in scan
	scanLeaf int32       // leaf scan was built for; nilRef when none
}

// Seek returns a cursor positioned at the first key >= start.
func (t *RegularTree[K]) Seek(start K) Cursor[K] {
	b, c := t.SearchToLeaf(start)
	i, _ := simd.SearchPairsLine(t.leafLine(b, c), start)
	cur := &regularCursor[K]{t: t, leaf: b, pos: c*t.ppl + i, scanLeaf: nilRef}
	if m := t.leaf(b); m.ndelta > 0 {
		t.buildLeafScan(m, &cur.scan)
		cur.scanLeaf = b
		for cur.di < cur.scan.n && cur.scan.keys[cur.di] < start {
			cur.di++
		}
	}
	return cur
}

// Next implements Cursor.
func (c *regularCursor[K]) Next() (keys.Pair[K], bool) {
	t := c.t
	for c.leaf != nilRef {
		m := t.leaf(c.leaf)
		np := int(m.npairs)
		if m.ndelta == 0 {
			if c.pos < np {
				data := m.data
				p := keys.Pair[K]{Key: data[2*c.pos], Value: data[2*c.pos+1]}
				c.pos++
				return p, true
			}
		} else {
			if c.scanLeaf != c.leaf {
				t.buildLeafScan(m, &c.scan)
				c.scanLeaf = c.leaf
				c.di = 0
			}
			data := m.data
			for c.pos < np || c.di < c.scan.n {
				haveB, haveD := c.pos < np, c.di < c.scan.n
				if haveD && (!haveB || c.scan.keys[c.di] <= data[2*c.pos]) {
					if haveB && c.scan.keys[c.di] == data[2*c.pos] {
						c.pos++
					}
					j := c.di
					c.di++
					if c.scan.tomb[j] {
						continue
					}
					return keys.Pair[K]{Key: c.scan.keys[j], Value: c.scan.vals[j]}, true
				}
				p := keys.Pair[K]{Key: data[2*c.pos], Value: data[2*c.pos+1]}
				c.pos++
				return p, true
			}
		}
		c.leaf = m.next
		c.pos = 0
	}
	return keys.Pair[K]{}, false
}
