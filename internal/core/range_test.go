package core

import (
	"slices"
	"testing"

	"hbtree/internal/workload"
)

func TestRangeQueryBatchMatchesSingle(t *testing.T) {
	for _, v := range []Variant{Implicit, Regular} {
		pairs := workload.Dataset[uint64](workload.Uniform, 60000, 42)
		tr, err := Build(pairs, Options{Variant: v})
		if err != nil {
			t.Fatal(err)
		}
		for _, count := range []int{1, 8, 32} {
			rqs := workload.RangeQueries(pairs, 3000, count, uint64(count))
			starts := make([]uint64, len(rqs))
			for i, rq := range rqs {
				starts[i] = rq.Start
			}
			out, stats, err := tr.RangeQueryBatch(starts, count)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ThroughputQPS <= 0 || stats.Matches == 0 {
				t.Fatalf("%v: bad stats %+v", v, stats)
			}
			for i, rq := range rqs {
				want := tr.RangeQuery(rq.Start, count, nil)
				if len(out[i]) != len(want) {
					t.Fatalf("%v count %d: query %d returned %d, want %d", v, count, i, len(out[i]), len(want))
				}
				for j := range want {
					if out[i][j] != want[j] {
						t.Fatalf("%v count %d: query %d diverges at %d", v, count, i, j)
					}
				}
			}
		}
		tr.Close()
	}
}

// TestRangeQueryBatchUsesReplica corrupts the host I-segment: the hybrid
// range path must still resolve correctly from the device replica.
// TestRangeQueryBatchUsesReplica: the batched range query resolves its
// start leaf on the device replica, the CPU range query on the host. A
// replica with every key MAX routes the start to leaf line 0, whose
// scan runs on from line 1.
func TestRangeQueryBatchUsesReplica(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 30000, 7)
	tr, err := Build(pairs, Options{Variant: Implicit})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	start := pairs[100].Key
	want := tr.RangeQuery(start, 8, nil)
	viaLine0 := tr.impl.RangeFromLine(0, start, 8, nil)
	if slices.Equal(viaLine0, want) {
		t.Fatal("a scan from leaf line 0 gives the right answer; the test cannot tell the paths apart")
	}

	pointReplicaAtMax(t, tr)
	out, _, err := tr.RangeQueryBatch([]uint64{start}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out[0], viaLine0) {
		t.Fatalf("replica range %v, want the scan from leaf line 0 %v", out[0], viaLine0)
	}
	if got := tr.RangeQuery(start, 8, nil); !slices.Equal(got, want) {
		t.Fatalf("CPU range %v followed the replica, want %v", got, want)
	}
}

func TestRangeQueryBatchEmpty(t *testing.T) {
	pairs := workload.Dataset[uint64](workload.Uniform, 1000, 1)
	tr, err := Build(pairs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	out, stats, err := tr.RangeQueryBatch(nil, 8)
	if err != nil || len(out) != 0 || stats.Queries != 0 {
		t.Fatal("empty batch mishandled")
	}
	// Past-the-end starts return empty results, not errors.
	out, _, err = tr.RangeQueryBatch([]uint64{pairs[len(pairs)-1].Key + 1}, 4)
	if err != nil || len(out[0]) != 0 {
		t.Fatalf("past-end range: %v %v", out, err)
	}
}
