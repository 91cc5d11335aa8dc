package kit

// DatasetSeed seeds hbtree.GeneratePairs on both sides of the wire, so
// the generator knows every stored key and its value. The op stream is
// seeded separately, from -seed.
const DatasetSeed = 42

// Conns is the most client connections a workload opens, the number of
// Ps of the generator and of the ladder, and the number of owners the
// mixed workload's keys are split among. The reference host has two
// cores; the closed loop models callers that wait for replies.
const Conns = 2

// PipeDepth is the sliding window of outstanding requests per
// connection in the throughput phase.
const PipeDepth = 32

// BatchQueries is the lib-batch call size: four paper-sized 16 K
// buckets, so double-buffered overlap is engaged.
const BatchQueries = 65536

// BatchSets is how many distinct query batches a batch loop cycles
// through: 2^20 queries, so no call's keys are warm from the last.
const BatchSets = 16

// LadderBatches is how many batch calls the ladder replays per batch
// rung: every set four times.
const LadderBatches = 64

// Workload describes one benchmark workload. Wire workloads drive an
// hbserve subprocess with ServerArgs (plus -addr, -n and, when Durable,
// -data-dir); the library workload calls hbtree in-process.
type Workload struct {
	Name string
	Why  string
	Wire bool
	// Conns is how many connections (callers, for the library workload)
	// run at once. Two, one per core of the reference host, except on
	// wire-get-coalesced: there a second connection makes the rate
	// depend on how often one connection's flush happens to wake the
	// runtime while the other's window timer is due, which wanders
	// between 1.8 k/s and 2.5 k/s with the state of the host (README,
	// "Noise"). One connection is bound by the window timer alone.
	Conns     int
	LogN      int // dataset size is 1<<LogN pairs
	SmokeLogN int
	// ServerArgs holds only flags of the frozen surface; every other
	// hbserve flag stays at its default, which is part of what is measured.
	ServerArgs []string
	Coalesce   bool // the server answers GETs through the coalescer
	Mixed      bool // 90 % GET / 8 % PUT / 2 % DEL on keys each connection owns
	Durable    bool // the server gets a -data-dir; the run ends with SIGKILL and recovery
}

// Workloads is the fixed list; BENCHMARK.json names the same four.
var Workloads = []Workload{
	{
		Name: "wire-get", Wire: true, Conns: Conns, LogN: 20, SmokeLogN: 14,
		Why: "read-only GETs on default hbserve: wire parse, per-reply flush and Server.Lookup do all the work; coalescer, batch engine and WAL do none",
	},
	{
		Name: "wire-get-coalesced", Wire: true, Conns: 1, LogN: 20, SmokeLogN: 14,
		ServerArgs: []string{"-coalesce"}, Coalesce: true,
		Why: "connection 0 of wire-get, byte for byte, against -coalesce: isolates window wait, sort, device and leaf stages; a better coalescer must show here and not on wire-get",
	},
	{
		Name: "lib-batch", Conns: 1, LogN: 24, SmokeLogN: 14,
		Why: "in-process LookupBatch of 65536 queries on 2^24 pairs (256 MB of leaves, larger than cache): core scheduling, gpusim kernels and leaf search, no wire or WAL",
	},
	{
		Name: "wire-mixed-durable", Wire: true, Conns: Conns, LogN: 20, SmokeLogN: 14,
		ServerArgs: []string{"-variant", "regular", "-leaf-fill", "0.875"}, Mixed: true, Durable: true,
		Why: "90/8/2 GET/PUT/DEL on a durable regular tree: WAL append, group-commit wait, in-place apply or clone, reads beside writes, then SIGKILL and recovery",
	},
}

// Find returns the named workload.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Pairs returns the dataset size for the run mode.
func (w Workload) Pairs(smoke bool) int {
	if smoke {
		return 1 << w.SmokeLogN
	}
	return 1 << w.LogN
}
