package simd

import (
	"math/rand"
	"slices"
	"testing"

	"hbtree/internal/keys"
)

// maxGroup is the largest query group the level step is tested with,
// the batch search's widest pipeline group.
const maxGroup = 64

// sortPad sorts node and sets its last pad slots to MAX, the trailing
// separators and empty slots of an implicit tree's node.
func sortPad[K keys.Key](node []K, pad int) []K {
	slices.Sort(node)
	for i := len(node) - min(pad, len(node)); i < len(node); i++ {
		node[i] = keys.Max[K]()
	}
	return node
}

// randomLevel returns a level of nodes sorted nodes of kpn slots with
// keys in [0, 2*kpn), so duplicates and queries equal to a key are
// common. Node i's tail is MAX-padded by i mod 3: none, the last slot,
// or a random count.
func randomLevel[K keys.Key](r *rand.Rand, nodes, kpn int) []K {
	level := make([]K, nodes*kpn)
	for n := 0; n < nodes; n++ {
		node := level[n*kpn : (n+1)*kpn]
		for i := range node {
			node[i] = K(r.Intn(2 * kpn))
		}
		sortPad(node, []int{0, 1, r.Intn(kpn + 1)}[n%3])
	}
	return level
}

// checkDescend runs DescendLevel on the group qs, whose members sit at
// the nodes idx, and holds every member to its node's lower bound
// clamped to the last child (fanout-1).
func checkDescend[K keys.Key](t *testing.T, level []K, kpn, fanout int, qs []K, idx []int32) {
	t.Helper()
	got := slices.Clone(idx)
	var loaded [maxGroup]K
	DescendLevel(level, kpn, fanout, qs, got, loaded[:])
	for j, q := range qs {
		node := level[int(idx[j])*kpn : (int(idx[j])+1)*kpn]
		want := idx[j]*int32(fanout) + int32(min(lowerBound(node, q), fanout-1))
		if got[j] != want {
			t.Fatalf("kpn %d fanout %d group %d member %d: node %v, q %d: child %d, want %d",
				kpn, fanout, len(qs), j, node, q, got[j], want)
		}
	}
}

// levelQueries returns the queries the property test asks of level:
// 0, MAX, and every key of the level, one below it and one above it.
func levelQueries[K keys.Key](level []K) []K {
	qs := []K{0, keys.Max[K]()}
	for _, k := range level {
		qs = append(qs, k)
		if k > 0 {
			qs = append(qs, k-1)
		}
		if k < keys.Max[K]() {
			qs = append(qs, k+1)
		}
	}
	return qs
}

// descendProperty checks DescendLevel on seeded three-node levels of
// every width from 8 to 64 slots, with fanout kpn (the HB+-tree's
// layout, whose trailing slot is MAX) and kpn+1 (the CPU-optimised
// layout, whose last child is reached by exceeding every key), at every
// group size from 1 to maxGroup. Every query of levelQueries is asked
// at every node, in groups of every size whose members sit at random
// nodes.
func descendProperty[K keys.Key](t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	const nodes = 3
	for kpn := 8; kpn <= 64; kpn++ {
		level := randomLevel[K](r, nodes, kpn)
		all := levelQueries(level)
		for _, fanout := range []int{kpn, kpn + 1} {
			for n := 0; n < nodes; n++ {
				for lo := 0; lo < len(all); lo += maxGroup {
					qs := all[lo:min(lo+maxGroup, len(all))]
					checkDescend(t, level, kpn, fanout, qs, slices.Repeat([]int32{int32(n)}, len(qs)))
				}
			}
			for g := 1; g <= maxGroup; g++ {
				qs := make([]K, g)
				idx := make([]int32, g)
				for j := range qs {
					qs[j] = all[r.Intn(len(all))]
					idx[j] = int32(r.Intn(nodes))
				}
				checkDescend(t, level, kpn, fanout, qs, idx)
			}
		}
	}
}

func TestDescendLevelMatchesLowerBound(t *testing.T) {
	descendProperty[uint64](t, 50)
	descendProperty[uint32](t, 51)
}

// FuzzDescendLevel drives DescendLevel with arbitrary two-node levels:
// width 8 + wsel mod 57, keys from data, the second node's last
// pad mod (width+1) slots MAX, fanout kpn or kpn+1, and a group of
// 1 + gsel mod 64 members alternating between the nodes, asking q and
// the queries data spells around it; for both key widths, and on the
// one-line nodes (8 slots of uint64, 16 of uint32) from the same data.
func FuzzDescendLevel(f *testing.F) {
	f.Add(uint8(0), []byte{1, 2, 3}, uint64(4), uint8(0), false, uint8(15))
	f.Add(uint8(8), []byte{5, 5, 5, 200}, ^uint64(0), uint8(3), true, uint8(63))
	f.Add(uint8(56), []byte{0xff, 0, 7}, uint64(1000), uint8(1), true, uint8(0))
	f.Fuzz(func(t *testing.T, wsel uint8, data []byte, q uint64, pad uint8, wide bool, gsel uint8) {
		w := 8 + int(wsel)%57
		p := int(pad) % (w + 1)
		fuzzDescend[uint64](t, w, data, q, p, wide, gsel)
		fuzzDescend[uint32](t, w, data, q, p, wide, gsel)
		fuzzDescend[uint64](t, 8, data, q, p%9, wide, gsel)
		fuzzDescend[uint32](t, 16, data, q, p%17, wide, gsel)
	})
}

func fuzzDescend[K keys.Key](t *testing.T, kpn int, data []byte, q uint64, pad int, wide bool, gsel uint8) {
	level := make([]K, 2*kpn)
	for i := range level {
		if len(data) > 0 {
			level[i] = K(uint64(data[i%len(data)]) * uint64(i%kpn+1))
		}
	}
	sortPad(level[:kpn], 0)
	sortPad(level[kpn:], pad)
	fanout := kpn
	if wide {
		fanout++
	}
	g := 1 + int(gsel)%maxGroup
	qs := make([]K, g)
	idx := make([]int32, g)
	for j := range qs {
		qs[j] = K(q)
		if len(data) > 0 {
			qs[j] = K(q) + K(data[j%len(data)]) - 128
		}
		idx[j] = int32(j % 2)
	}
	checkDescend(t, level, kpn, fanout, qs, idx)
}
