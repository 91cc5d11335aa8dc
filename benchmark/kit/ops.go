package kit

import (
	"sort"

	"hbtree"
)

// RNG is splitmix64: small, fast and identical on every platform, so a
// seed names one op stream for good.
type RNG struct{ s uint64 }

func NewRNG(seed uint64) *RNG { return &RNG{s: seed} }

func (r *RNG) Uint64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). The modulo bias is below 2^-40 for
// every n used here.
func (r *RNG) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// OpKind is a request type of the line protocol.
type OpKind uint8

const (
	Get OpKind = iota
	Put
	Del
)

// Op is one request together with the only reply the model accepts.
type Op struct {
	Kind  OpKind
	Key   uint64
	Val   uint64 // PUT value
	Found bool   // GET: VALUE expected; DEL: OK expected (else NOTFOUND)
	Want  uint64 // GET: the expected value when Found
}

type modelEntry struct {
	val     uint64
	present bool
}

// Stream is one connection's seeded op stream and, for the mixed
// workload, the model of every key it has written. A connection of the
// mixed workload owns the keys congruent to its index modulo Conns, so
// no other connection can change what its reads must return:
// read-your-write is checked on every reply. A read-only stream draws
// from the whole dataset. The model advances when an op is generated — replies on
// one connection arrive in request order, so that is also the order the
// server applies them in.
type Stream struct {
	rng      *RNG
	pairs    []hbtree.Pair[uint64]
	conn     uint64
	mixed    bool
	model    map[uint64]modelEntry
	touched  []uint64 // every key ever written, for read-back
	inserted []uint64 // fresh keys currently present, for DEL
}

// NewStream returns connection conn's stream for seed.
func NewStream(pairs []hbtree.Pair[uint64], seed uint64, conn int, mixed bool) *Stream {
	return &Stream{
		rng:   NewRNG(seed*0x100000001b3 + uint64(conn) + 1),
		pairs: pairs,
		conn:  uint64(conn),
		mixed: mixed,
		model: make(map[uint64]modelEntry),
	}
}

// Next generates the next op.
func (s *Stream) Next() Op {
	if s.mixed {
		switch r := s.rng.Intn(100); {
		case r < 4: // overwrite a stored key
			return s.put(s.storedKey())
		case r < 8: // insert a fresh key
			k := s.absentKey()
			s.inserted = append(s.inserted, k)
			return s.put(k)
		case r < 10:
			if len(s.inserted) == 0 {
				k := s.absentKey()
				s.inserted = append(s.inserted, k)
				return s.put(k)
			}
			i := s.rng.Intn(len(s.inserted))
			k := s.inserted[i]
			s.inserted[i] = s.inserted[len(s.inserted)-1]
			s.inserted = s.inserted[:len(s.inserted)-1]
			s.model[k] = modelEntry{}
			return Op{Kind: Del, Key: k, Found: true}
		}
	}
	var k uint64
	switch r := s.rng.Intn(10); {
	case r == 0:
		k = s.absentKey()
	case r == 1 && len(s.touched) > 0:
		k = s.touched[s.rng.Intn(len(s.touched))] // read own writes and deletes back
	default:
		k = s.storedKey()
	}
	v, ok := s.Expect(k)
	return Op{Kind: Get, Key: k, Found: ok, Want: v}
}

func (s *Stream) put(k uint64) Op {
	v := s.rng.Uint64()
	if _, seen := s.model[k]; !seen {
		s.touched = append(s.touched, k)
	}
	s.model[k] = modelEntry{val: v, present: true}
	return Op{Kind: Put, Key: k, Val: v}
}

// storedKey returns a uniformly chosen dataset key this connection owns.
func (s *Stream) storedKey() uint64 {
	i := s.rng.Intn(len(s.pairs))
	for s.mixed && s.pairs[i].Key%Conns != s.conn {
		if i++; i == len(s.pairs) {
			i = 0
		}
	}
	return s.pairs[i].Key
}

// absentKey returns an owned key that is neither stored nor modelled.
func (s *Stream) absentKey() uint64 {
	for {
		k := s.rng.Uint64()
		if s.mixed {
			k -= k % Conns
			k += s.conn
		}
		if k == ^uint64(0) { // the reserved fence key
			continue
		}
		if _, seen := s.model[k]; !seen && !InDataset(s.pairs, k) {
			return k
		}
	}
}

// Expect returns what a GET of k must answer now.
func (s *Stream) Expect(k uint64) (uint64, bool) {
	if e, ok := s.model[k]; ok {
		return e.val, e.present
	}
	if InDataset(s.pairs, k) {
		return hbtree.ValueFor(k), true
	}
	return 0, false
}

// Touched lists every key the stream has written or deleted.
func (s *Stream) Touched() []uint64 { return s.touched }

// InDataset reports whether k is a key of the sorted dataset.
func InDataset(pairs []hbtree.Pair[uint64], k uint64) bool {
	i := sort.Search(len(pairs), func(i int) bool { return pairs[i].Key >= k })
	return i < len(pairs) && pairs[i].Key == k
}

// Batches is the lib-batch input: Count query batches with the answer
// every query must get. Keys are drawn uniformly from the dataset
// (with replacement: under 0.4 % duplicates at 65536 of 2^24) and one
// in ten is absent.
type Batches struct {
	Queries [][]uint64
	Values  [][]uint64
	Found   [][]bool
}

// NewBatches builds count batches of size queries each from seed.
func NewBatches(pairs []hbtree.Pair[uint64], seed uint64, count, size int) *Batches {
	rng := NewRNG(seed*0x100000001b3 + 0xb47c)
	b := &Batches{}
	for c := 0; c < count; c++ {
		q := make([]uint64, size)
		v := make([]uint64, size)
		f := make([]bool, size)
		for i := range q {
			if rng.Intn(10) == 0 {
				k := rng.Uint64()
				for k == ^uint64(0) || InDataset(pairs, k) {
					k = rng.Uint64()
				}
				q[i] = k
				continue
			}
			p := pairs[rng.Intn(len(pairs))]
			q[i], v[i], f[i] = p.Key, hbtree.ValueFor(p.Key), true
		}
		b.Queries, b.Values, b.Found = append(b.Queries, q), append(b.Values, v), append(b.Found, f)
	}
	return b
}

// Mismatches counts the results of batch c that differ from the model.
func (b *Batches) Mismatches(c int, values []uint64, found []bool) int {
	bad := 0
	wantV, wantF := b.Values[c], b.Found[c]
	for i := range wantF {
		if found[i] != wantF[i] || (wantF[i] && values[i] != wantV[i]) {
			bad++
		}
	}
	return bad
}

func (k OpKind) String() string { return [...]string{"GET", "PUT", "DEL"}[k] }
