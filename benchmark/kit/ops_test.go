package kit

import (
	"reflect"
	"testing"

	"hbtree"
)

func TestStreamIsSeededAndOwnsItsKeys(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<10, DatasetSeed)
	for _, mixed := range []bool{false, true} {
		a, b := NewStream(pairs, 7, 1, mixed), NewStream(pairs, 7, 1, mixed)
		other := NewStream(pairs, 8, 1, mixed)
		same, differ := true, false
		for i := 0; i < 2000; i++ {
			x, y, z := a.Next(), b.Next(), other.Next()
			same = same && reflect.DeepEqual(x, y)
			differ = differ || !reflect.DeepEqual(x, z)
			if mixed && x.Key%Conns != 1 {
				t.Fatalf("mixed=%t: op %d uses key %d, which connection 1 does not own", mixed, i, x.Key)
			}
			if !mixed && x.Kind != Get {
				t.Fatalf("read-only stream produced %v", x.Kind)
			}
		}
		if !same || !differ {
			t.Errorf("mixed=%t: same seed same stream %t, other seed differs %t", mixed, same, differ)
		}
	}
}

// The stream's expectations must be exactly what a correct store
// answers when it applies the ops in order.
func TestMixedStreamModelAgreesWithAStore(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<10, DatasetSeed)
	store := make(map[uint64]uint64, len(pairs))
	for _, p := range pairs {
		store[p.Key] = p.Value
	}
	st := NewStream(pairs, 3, 0, true)
	counts := map[OpKind]int{}
	absent := 0
	for i := 0; i < 20000; i++ {
		op := st.Next()
		counts[op.Kind]++
		switch op.Kind {
		case Get:
			v, ok := store[op.Key]
			if ok != op.Found || (ok && v != op.Want) {
				t.Fatalf("op %d: GET %d expects (%d, %t), a store holds (%d, %t)", i, op.Key, op.Want, op.Found, v, ok)
			}
			if !ok {
				absent++
			}
		case Put:
			store[op.Key] = op.Val
		case Del:
			if _, ok := store[op.Key]; !ok || !op.Found {
				t.Fatalf("op %d: DEL %d of a key not stored", i, op.Key)
			}
			delete(store, op.Key)
		}
	}
	if g, p, d := counts[Get], counts[Put], counts[Del]; g < 17500 || g > 18500 || p < 1300 || d < 250 {
		t.Errorf("op mix %d GET / %d PUT / %d DEL, want about 90/8/2 %%", g, p, d)
	}
	if absent < 1000 {
		t.Errorf("only %d GETs of absent keys in %d", absent, counts[Get])
	}
	for _, k := range st.Touched() {
		v, ok := st.Expect(k)
		if sv, sok := store[k]; ok != sok || (ok && v != sv) {
			t.Fatalf("read-back of %d expects (%d, %t), a store holds (%d, %t)", k, v, ok, sv, sok)
		}
	}
}

func TestBatchesCarryTheirAnswers(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<10, DatasetSeed)
	b := NewBatches(pairs, 5, 3, 512)
	again := NewBatches(pairs, 5, 3, 512)
	if !reflect.DeepEqual(b, again) {
		t.Fatal("same seed, different batches")
	}
	misses := 0
	for c := range b.Queries {
		for i, q := range b.Queries[c] {
			if in := InDataset(pairs, q); in != b.Found[c][i] {
				t.Fatalf("batch %d query %d: found %t, stored %t", c, i, b.Found[c][i], in)
			}
			if !b.Found[c][i] {
				misses++
			}
		}
		if bad := b.Mismatches(c, b.Values[c], b.Found[c]); bad != 0 {
			t.Errorf("the model disagrees with itself on %d results", bad)
		}
	}
	if misses < 80 || misses > 250 {
		t.Errorf("%d absent keys in 1536 queries, want about one in ten", misses)
	}
	wrong := append([]uint64(nil), b.Values[0]...)
	for i := range wrong {
		if b.Found[0][i] {
			wrong[i]++
			break
		}
	}
	if bad := b.Mismatches(0, wrong, b.Found[0]); bad != 1 {
		t.Errorf("one wrong value counted as %d mismatches", bad)
	}
}
