// Package workload generates the datasets and query streams of the
// paper's evaluation (Section 6.1): uniformly distributed key-value
// tuples whose keys are then Knuth-shuffled to form the search input,
// plus the four distributions of the skew experiment (Figure 12) and the
// range-query workload (Figure 17).
//
// All generation is deterministic given a seed, so experiments and tests
// are reproducible run to run.
package workload

import (
	"cmp"
	"math"
	"slices"

	"hbtree/internal/keys"
)

// RNG is a splitmix64 pseudo-random generator. Its output sequence for a
// fixed seed is mix(seed + i*golden) where mix is a bijection, a property
// the distinct-key generator exploits.
type RNG struct{ state uint64 }

// NewRNG seeds a generator.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

const golden = 0x9E3779B97F4A7C15

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	r.state += golden
	return mix64(r.state)
}

// Uint32 returns the next pseudo-random 32-bit value.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a pseudo-random int in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("workload: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Distribution selects the query/key distribution of Figure 12.
type Distribution int

// The distributions evaluated in the skew experiment (Section 6.3):
// Uniform is the baseline; Normal(mu=0.5, sigma^2=0.125), Gamma(k=3,
// theta=3) and Zipf(alpha=2) generate values in [0,1] that are linearly
// mapped onto the key domain [0, MAX].
const (
	Uniform Distribution = iota
	Normal
	Gamma
	Zipf
)

// String names the distribution as in Figure 12.
func (d Distribution) String() string {
	switch d {
	case Uniform:
		return "Uniform"
	case Normal:
		return "Normal"
	case Gamma:
		return "Gamma"
	case Zipf:
		return "Zipf"
	}
	return "unknown"
}

// unit draws one sample in [0, 1] from the distribution.
func (d Distribution) unit(r *RNG) float64 {
	switch d {
	case Normal:
		// Box-Muller; mu = 0.5, sigma^2 = 0.125, clamped to [0, 1].
		u1 := r.Float64()
		for u1 == 0 {
			u1 = r.Float64()
		}
		u2 := r.Float64()
		z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
		v := 0.5 + z*math.Sqrt(0.125)
		return clamp01(v)
	case Gamma:
		// Gamma(k=3, theta=3) is Erlang(3): sum of three exponentials.
		// Samples are rescaled into [0, 1] by the distribution's
		// ~99.9th percentile (k*theta + 8*theta) and clamped, matching
		// the paper's "generated random values are in the range [0,1]".
		prod := 1.0
		for i := 0; i < 3; i++ {
			u := r.Float64()
			for u == 0 {
				u = r.Float64()
			}
			prod *= u
		}
		v := -3.0 * math.Log(prod) // Erlang(3, theta=3)
		return clamp01(v / 33.0)
	case Zipf:
		// Zipf(alpha=2) over integer ranks by inverse transform: for
		// alpha=2 the rank CDF is ~ 1 - 1/rank (the zeta(2)
		// normalisation is folded into the clamp), so
		// rank = floor(1/(1-u)). Ranks map onto [0,1] over a 2^20 rank
		// universe; the first ranks dominate, concentrating queries on
		// few distinct keys exactly as the paper's "highly skewed" case
		// requires.
		u := r.Float64()
		rank := math.Floor(1.0 / (1.0 - u*0.9999990))
		const universe = 1 << 20
		if rank > universe {
			rank = universe
		}
		return (rank - 1) / universe
	default:
		return r.Float64()
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// maxUsable is the largest legal key: keys.Max is the reserved sentinel.
func maxUsable[K keys.Key]() K { return keys.Max[K]() - 1 }

// Draw samples one key from the distribution, linearly mapped onto
// [0, MAX-1] (MAX itself is the tree's sentinel and never generated).
func Draw[K keys.Key](d Distribution, r *RNG) K {
	if d == Uniform {
		return K(uniformKey(r.Uint64(), uint(64-8*keys.Size[K]())))
	}
	return fromUnit[K](d.unit(r))
}

// uniformKey maps one generator output onto a Uniform key of 64-top
// bits: the output's high bits (Uint32's in 32-bit mode), MAX moved one
// down to keep the sentinel free.
func uniformKey(v uint64, top uint) uint64 {
	v >>= top
	if v == math.MaxUint64>>top {
		v--
	}
	return v
}

// fromUnit maps u in [0,1] onto the key domain. The value is quantised
// to a 2^53 grid first: multiplying u directly by 2^64 would overflow
// the float64-to-uint64 conversion for u near 1 (amd64 clamps such
// conversions to 2^63, silently folding the distribution's upper tail
// onto the middle of the domain).
func fromUnit[K keys.Key](u float64) K {
	if u >= 1 {
		return maxUsable[K]()
	}
	if u < 0 {
		u = 0
	}
	g := uint64(u * (1 << 53)) // exact integer in [0, 2^53)
	var k K
	switch any(k).(type) {
	case uint32:
		v := uint32(g >> 21)
		if v == uint32(keys.Max[uint32]()) {
			v--
		}
		return K(v)
	default:
		return K(g << 11) // tops out at 2^64 - 2048, below the sentinel
	}
}

// ValueFor derives the canonical value stored with a key; tests use it to
// verify that lookups return the value belonging to the key they asked
// for.
func ValueFor[K keys.Key](k K) K {
	var z K
	switch any(z).(type) {
	case uint32:
		return K(mix64(uint64(k)) >> 32)
	default:
		return K(mix64(uint64(k)))
	}
}

// DistinctKeys returns n distinct keys drawn from the distribution,
// sorted ascending, or none when n <= 0. It draws a first batch of about
// 1.03·n keys, sorts it with keys.SortRadix and drops duplicates, then
// draws and merges the shortfall until n distinct keys remain. For
// Uniform the splitmix bijection makes collisions impossible in 64-bit
// mode and rare in 32-bit mode; skewed distributions redraw more.
func DistinctKeys[K keys.Key](d Distribution, n int, seed uint64) []K {
	if n <= 0 {
		return []K{}
	}
	r := NewRNG(seed)
	out := make([]K, 0, firstBatch(n))
	for len(out) < n {
		want := n - len(out)
		for range firstBatch(want) {
			out = append(out, Draw[K](d, r))
		}
		out = dedupSorted(out)
	}
	return out[:n]
}

func dedupSorted[K keys.Key](s []K) []K {
	keys.SortRadix(s)
	w := 0
	for i, v := range s {
		if i == 0 || v != s[w-1] {
			s[w] = v
			w++
		}
	}
	return s[:w]
}

// Dataset returns n sorted, distinct key-value pairs for bulk-loading a
// tree, or none when n <= 0. Values are ValueFor(key). The keys are
// DistinctKeys(d, n, seed); Uniform ones come from uniformDataset's
// parallel counting path, which yields the same pairs.
func Dataset[K keys.Key](d Distribution, n int, seed uint64) []keys.Pair[K] {
	if n <= 0 {
		return []keys.Pair[K]{}
	}
	if d == Uniform {
		return uniformDataset[K](n, firstBatch(n), seed)
	}
	return drawLoopDataset[K](d, n, seed)
}

// drawLoopDataset pairs DistinctKeys' keys with their values: the
// general path, and the oracle of the Uniform one.
func drawLoopDataset[K keys.Key](d Distribution, n int, seed uint64) []keys.Pair[K] {
	ks := DistinctKeys[K](d, n, seed)
	pairs := make([]keys.Pair[K], n)
	for i, k := range ks {
		pairs[i] = keys.Pair[K]{Key: k, Value: ValueFor(k)}
	}
	return pairs
}

// Shuffle performs the Knuth shuffle the paper applies to the tuple set
// before using it as search input (Section 6.1).
func Shuffle[T any](s []T, seed uint64) {
	r := NewRNG(seed)
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// SearchInput returns the dataset's keys in Knuth-shuffled order — the
// paper's search workload: every query hits.
func SearchInput[K keys.Key](pairs []keys.Pair[K], nQueries int, seed uint64) []K {
	qs := make([]K, len(pairs))
	for i, p := range pairs {
		qs[i] = p.Key
	}
	Shuffle(qs, seed)
	for len(qs) < nQueries {
		qs = append(qs, qs[:min(len(pairs), nQueries-len(qs))]...)
	}
	return qs[:nQueries]
}

// SkewedQueries draws nQueries keys directly from the distribution (the
// Figure 12 workload); queries may or may not hit the tree.
func SkewedQueries[K keys.Key](d Distribution, nQueries int, seed uint64) []K {
	r := NewRNG(seed)
	qs := make([]K, nQueries)
	for i := range qs {
		qs[i] = Draw[K](d, r)
	}
	return qs
}

// RangeQuery describes one range lookup: scan forward from the first key
// >= Start until Count matches are returned.
type RangeQuery[K keys.Key] struct {
	Start K
	Count int
}

// RangeQueries builds nQueries range queries of the given selectivity
// (matches per query) whose start keys are existing dataset keys, so each
// query returns exactly Count matches except near the end of the domain
// (Figure 17's 1..32 matching keys per query).
func RangeQueries[K keys.Key](pairs []keys.Pair[K], nQueries, count int, seed uint64) []RangeQuery[K] {
	r := NewRNG(seed)
	out := make([]RangeQuery[K], nQueries)
	limit := len(pairs) - count
	if limit < 1 {
		limit = 1
	}
	for i := range out {
		out[i] = RangeQuery[K]{Start: pairs[r.Intn(limit)].Key, Count: count}
	}
	return out
}

// UpdateOp is one entry of a batch-update workload.
type UpdateOp[K keys.Key] struct {
	Pair   keys.Pair[K]
	Delete bool
}

// UpdateBatch builds a batch of n update operations against the dataset:
// deleteFrac of them delete existing keys, the rest insert fresh keys not
// present in the dataset. pairs must be sorted by key, as every Dataset
// is: a drawn key's presence is a binary search.
func UpdateBatch[K keys.Key](pairs []keys.Pair[K], n int, deleteFrac float64, seed uint64) []UpdateOp[K] {
	r := NewRNG(seed)
	isPresent := func(k K) bool {
		_, ok := slices.BinarySearchFunc(pairs, k, func(p keys.Pair[K], k K) int { return cmp.Compare(p.Key, k) })
		return ok
	}
	out := make([]UpdateOp[K], 0, n)
	used := make(map[K]struct{}, n)
	for len(out) < n {
		if r.Float64() < deleteFrac && len(pairs) > 0 {
			k := pairs[r.Intn(len(pairs))].Key
			if _, dup := used[k]; dup {
				continue
			}
			used[k] = struct{}{}
			out = append(out, UpdateOp[K]{Pair: keys.Pair[K]{Key: k}, Delete: true})
			continue
		}
		k := Draw[K](Uniform, r)
		if isPresent(k) {
			continue
		}
		if _, dup := used[k]; dup {
			continue
		}
		used[k] = struct{}{}
		out = append(out, UpdateOp[K]{Pair: keys.Pair[K]{Key: k, Value: ValueFor(k)}})
	}
	return out
}
