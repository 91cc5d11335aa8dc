package keys

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// radixInputs builds the shapes SortRadix must handle at length n:
// random, presorted, reversed, all-equal, few-distinct, and random with
// 0 and Max planted at both ends.
func radixInputs[K Key](rng *rand.Rand, n int) map[string][]K {
	in := map[string][]K{
		"random": make([]K, n), "sorted": make([]K, n), "reversed": make([]K, n),
		"allequal": make([]K, n), "fewdistinct": make([]K, n), "extremes": make([]K, n),
	}
	for i := range n {
		r := K(rng.Uint64())
		in["random"][i] = r
		in["sorted"][i] = K(i) << 3
		in["reversed"][i] = K(n-i) << 3
		in["allequal"][i] = 7
		in["fewdistinct"][i] = K(rng.Intn(4)) * (Max[K]() / 3)
		in["extremes"][i] = r
	}
	if n > 0 {
		in["extremes"][0] = Max[K]()
		in["extremes"][n-1] = 0
	}
	if n > 2 {
		in["extremes"][n/2] = Max[K]()
		in["extremes"][1] = 0
	}
	return in
}

func checkSortRadix[K Key](t *testing.T, rng *rand.Rand) {
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, radixFanOut - 1, radixFanOut, radixFanOut + 1} {
		for name, ks := range radixInputs[K](rng, n) {
			want := slices.Clone(ks)
			slices.Sort(want)
			SortRadix(ks)
			if !slices.Equal(ks, want) {
				t.Fatalf("%s/n=%d: SortRadix differs from slices.Sort", name, n)
			}
		}
	}
}

// TestSortRadix compares SortRadix with slices.Sort on adversarial
// shapes at lengths straddling the insertion-sort cutoff and the
// fan-out threshold, for both key widths.
func TestSortRadix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	t.Run("uint32", func(t *testing.T) { checkSortRadix[uint32](t, rng) })
	t.Run("uint64", func(t *testing.T) { checkSortRadix[uint64](t, rng) })
}

// TestSortRadixAllocsNothing: below the fan-out threshold the sort runs
// on the caller's goroutine with its counters on the stack.
func TestSortRadixAllocsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{radixCutoff, 1000, radixFanOut - 1} {
		src := make([]uint64, n)
		for i := range src {
			src[i] = rng.Uint64()
		}
		ks := make([]uint64, n)
		allocs := testing.AllocsPerRun(10, func() {
			copy(ks, src)
			SortRadix(ks)
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocations per sort, want 0", n, allocs)
		}
	}
}

func checkSortBucket[K Key](t *testing.T, rng *rand.Rand) {
	width := uint(8 * Size[K]())
	for _, shift := range []uint{0, 4, 8, width - 11, width} {
		for _, n := range []int{0, 1, 2, 512, 1000} {
			for name, ks := range radixInputs[K](rng, n) {
				if name == "random" && shift < width {
					// A bucket: every key shares the bits above shift.
					for i := range ks {
						ks[i] = ks[0]>>shift<<shift | ks[i]&(1<<shift-1)
					}
				}
				want := slices.Clone(ks)
				slices.Sort(want)
				got := make([]K, n)
				SortBucket(got, ks, shift)
				if !slices.Equal(got, want) {
					t.Fatalf("%s/n=%d/shift=%d: SortBucket differs from slices.Sort", name, n, shift)
				}
			}
		}
	}
}

// TestSortBucket compares SortBucket with slices.Sort on buckets (keys
// sharing their bits above shift) and on the adversarial shapes, which
// it must sort too, for both key widths.
func TestSortBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	t.Run("uint32", func(t *testing.T) { checkSortBucket[uint32](t, rng) })
	t.Run("uint64", func(t *testing.T) { checkSortBucket[uint64](t, rng) })
	allocs := testing.AllocsPerRun(10, func() {
		src, dst := []uint64{3, 1, 2}, make([]uint64, 3)
		SortBucket(dst, src, 64)
	})
	if allocs != 0 {
		t.Errorf("%v allocations per sort, want 0", allocs)
	}
}

// FuzzSortRadix reads the input as little-endian keys of both widths,
// and as one key per byte holding that byte in its top and the next byte
// in its bottom digit (long, duplicate-heavy inputs from short ones),
// and compares SortRadix with slices.Sort on each.
func FuzzSortRadix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00\x01"))
	f.Add(make([]byte, 8*(radixCutoff+1)))
	f.Fuzz(func(t *testing.T, b []byte) {
		k32 := make([]uint32, len(b)/4)
		for i := range k32 {
			k32[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		k64 := make([]uint64, len(b)/8)
		for i := range k64 {
			k64[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		perByte := make([]uint64, len(b))
		for i := range perByte {
			perByte[i] = uint64(b[i])<<56 | uint64(b[(i+1)%len(b)])
		}
		fuzzCheck(t, k32)
		fuzzCheck(t, k64)
		fuzzCheck(t, perByte)
	})
}

func fuzzCheck[K Key](t *testing.T, ks []K) {
	want := slices.Clone(ks)
	slices.Sort(want)
	SortRadix(ks)
	if !slices.Equal(ks, want) {
		t.Fatalf("SortRadix gave %v, want %v", ks, want)
	}
}
