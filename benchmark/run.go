package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hbtree"
	"hbtree/benchmark/kit"
)

// setupRounds is how many times a run sets the system up; setup_s is
// the median, so one slow exec or page-fault storm does not own it.
const setupRounds = 5

// value is one reported metric.
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"` // how many timings the value summarises
}

// result is the outcome of one run of one workload.
type result struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Traced     bool             `json:"traced"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	FirstError string           `json:"first_error,omitempty"`
	Metrics    map[string]value `json:"metrics"`
	Notes      []string         `json:"notes,omitempty"`
}

func (r *result) set(name string, v float64, samples int) {
	m, ok := metricByName[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the table")
	}
	r.Metrics[name] = value{Value: v, Unit: m.Unit, Samples: samples}
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// runOpts selects one run.
type runOpts struct {
	w       kit.Workload
	seed    uint64
	seconds float64 // measured time; split between phases by phases()
	smoke   bool
	trace   bool
}

// phases splits the measured time of a wire run: 40 % with one request
// outstanding per connection (latency), 60 % pipelined (throughput).
// The warm-up before them is not measured.
func (o runOpts) phases() (warm, rtt, pipe time.Duration) {
	total := time.Duration(o.seconds * float64(time.Second))
	warm = time.Second
	if o.smoke {
		warm = 50 * time.Millisecond
	}
	return warm, total * 2 / 5, total * 3 / 5
}

// window is the throughput window: half a second, or a quarter of a
// phase too short to hold four of them.
func window(phase time.Duration) time.Duration {
	if phase >= 2*time.Second {
		return 500 * time.Millisecond
	}
	return phase / 4
}

// sustained is the throughput statistic: the 90th percentile of the
// per-window rates — the rate the system holds in its best tenth of
// half-seconds. On the reference sandbox interference only ever slows a
// window down, in stretches from seconds to minutes, so the median over
// windows drifts with the neighbours (four runs in a row: medians 132 k
// to 152 k/s, best windows 154 k to 164 k/s); the upper tail tracks the
// undisturbed rate, and taking the 90th percentile instead of the
// maximum keeps one window that caught a burst of buffered replies from
// setting it.
func sustained(rates []float64) float64 {
	s := slices.Clone(rates)
	slices.Sort(s)
	return kit.Percentile(s, 0.90)
}

func run(e *env, o runOpts) (*result, error) {
	if o.trace {
		return runTraced(e, o)
	}
	res := &result{Workload: o.w.Name, Seed: o.seed, Metrics: map[string]value{}}
	var err error
	if o.w.Wire {
		err = runWire(e, o, res)
	} else {
		err = runLib(o, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// wireRun is a started server with its connected clients.
type wireRun struct {
	e       *env
	pairs   []hbtree.Pair[uint64]
	args    []string
	dataDir string
	srv     *server
	clients []*client
	setups  []float64
}

// serverArgs returns the hbserve flags for a workload; only flags of
// the frozen surface appear.
func serverArgs(w kit.Workload, n int, dataDir string) []string {
	args := append([]string{"-n", strconv.Itoa(n)}, w.ServerArgs...)
	if w.Durable {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// firstReply connects and GETs a stored key: the server is set up when
// that reply is correct.
func firstReply(addr string, p hbtree.Pair[uint64]) error {
	cl, err := dial(addr, -1, nil)
	if err != nil {
		return err
	}
	defer cl.c.Close()
	cl.c.SetDeadline(time.Now().Add(grace))
	if err := cl.roundTrip(kit.Op{Kind: kit.Get, Key: p.Key, Found: true, Want: hbtree.ValueFor(p.Key)}); err != nil {
		return err
	}
	if cl.failed > 0 {
		return fmt.Errorf("first reply: %s", cl.firstErr)
	}
	return nil
}

// startWire sets the server up `rounds` times (fresh data dir each
// time), keeps the last one and connects the clients.
func startWire(e *env, o runOpts, w kit.Workload, tag string, rounds int) (*wireRun, error) {
	n := w.Pairs(o.smoke)
	wr := &wireRun{e: e, pairs: hbtree.GeneratePairs[uint64](n, kit.DatasetSeed)}
	for i := 0; i < rounds; i++ {
		if wr.srv != nil {
			wr.srv.kill()
			os.RemoveAll(wr.dataDir)
		}
		wr.dataDir = e.scratch(tag + "-data")
		wr.args = serverArgs(w, n, wr.dataDir)
		t0 := time.Now()
		srv, err := e.start("server-"+tag, wr.args)
		if err != nil {
			return nil, err
		}
		wr.srv = srv
		if err := firstReply(srv.addr, wr.pairs[0]); err != nil {
			return nil, fmt.Errorf("%w (log: %s)", err, e.saveLog(srv))
		}
		wr.setups = append(wr.setups, time.Since(t0).Seconds())
	}
	for c := 0; c < w.Conns; c++ {
		cl, err := dial(wr.srv.addr, c, kit.NewStream(wr.pairs, o.seed, c, w.Mixed))
		if err != nil {
			return nil, err
		}
		wr.clients = append(wr.clients, cl)
	}
	return wr, nil
}

// phase runs fn on every client at once and merges what they return.
func (wr *wireRun) phase(fn func(cl *client, start time.Time) samples) samples {
	parts := make([]samples, len(wr.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, cl := range wr.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = fn(cl, start)
		}()
	}
	wg.Wait()
	return merge(parts)
}

// control sends one command on a fresh connection and returns the
// single reply line.
func (wr *wireRun) control(cmd string) (string, error) {
	cl, err := dial(wr.srv.addr, -1, nil)
	if err != nil {
		return "", err
	}
	defer cl.c.Close()
	cl.c.SetDeadline(time.Now().Add(grace))
	if _, err := cl.w.WriteString(cmd + "\n"); err != nil {
		return "", err
	}
	if err := cl.w.Flush(); err != nil {
		return "", err
	}
	line, err := cl.r.ReadString('\n')
	return strings.TrimSpace(line), err
}

// field extracts the numeric value of key=<n> from a STATS or PERSIST line.
func field(line, key string) float64 {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			x, _ := strconv.ParseFloat(v, 64)
			return x
		}
	}
	return 0
}

// tally folds the clients' counts into the result.
func (wr *wireRun) tally(res *result) {
	for _, cl := range wr.clients {
		res.Attempted += cl.attempted
		res.Failed += cl.failed
		if res.FirstError == "" {
			res.FirstError = cl.firstErr
		}
		cl.attempted, cl.failed = 0, 0
	}
}

func (wr *wireRun) close() {
	for _, cl := range wr.clients {
		cl.c.Close()
	}
	if wr.srv != nil {
		wr.srv.kill()
	}
	os.RemoveAll(wr.dataDir)
}

// crashAndRecover SIGKILLs the server, restarts it on the same data
// dir, and reads back every key any connection wrote or deleted. It
// returns kill -> first correct reply in seconds. This is process-crash
// durability: the operating system's page cache survives SIGKILL, so
// bytes written but not yet fsynced are not discarded by this test.
func (wr *wireRun) crashAndRecover(res *result) (float64, error) {
	for _, cl := range wr.clients {
		cl.c.Close()
	}
	t0 := time.Now()
	wr.srv.kill()
	srv, err := wr.e.start("server-recovered", wr.args)
	if err != nil {
		return 0, err
	}
	wr.srv = srv
	if err := firstReply(srv.addr, wr.pairs[0]); err != nil {
		return 0, fmt.Errorf("after recovery: %w (log: %s)", err, wr.e.saveLog(srv))
	}
	recovery := time.Since(t0).Seconds()
	for i, old := range wr.clients {
		cl, err := dial(srv.addr, i, old.st)
		if err != nil {
			return 0, err
		}
		wr.clients[i] = cl
		cl.doing = "read-back after recovery"
		cl.c.SetDeadline(time.Now().Add(60 * time.Second))
		for _, k := range old.st.Touched() {
			v, ok := old.st.Expect(k)
			cl.attempted++
			if err := cl.roundTrip(kit.Op{Kind: kit.Get, Key: k, Found: ok, Want: v}); err != nil {
				cl.fail("%v", err)
				break
			}
		}
	}
	return recovery, nil
}

// runWire is the untraced run of a wire workload.
func runWire(e *env, o runOpts, res *result) error {
	wr, err := startWire(e, o, o.w, "main", setupRounds)
	if err != nil {
		return err
	}
	defer wr.close()
	warm, rttDur, pipeDur := o.phases()
	wr.phase(func(cl *client, start time.Time) samples { return cl.rtt(start, warm, nil) })
	srvCPU0, _ := wr.srv.cpuSeconds()
	genCPU0 := selfCPUSeconds()
	rtt := wr.phase(func(cl *client, start time.Time) samples { return cl.rtt(start, rttDur, nil) })
	pipe := wr.phase(func(cl *client, start time.Time) samples { return cl.pipe(start, pipeDur) })
	srvCPU1, _ := wr.srv.cpuSeconds()
	genCPU1 := selfCPUSeconds()
	wr.tally(res)

	res.set("setup_s", kit.Median(wr.setups), len(wr.setups))
	res.notef("set-ups %.3f s", wr.setups)
	rates := kit.WindowRates(pipe.at, int64(window(pipeDur)), int64(pipeDur))
	res.set("qps", sustained(rates), len(pipe.at))
	// On the mixed workload nine ops in ten are GETs thirty times faster
	// than a write, so a median over all of them would never see the
	// durable path: there p50_us is the median PUT/DEL ack.
	timed := rtt
	if o.w.Mixed {
		timed = rtt.only(true)
	}
	lats := slices.Clone(timed.lat)
	slices.Sort(lats)
	res.set("p50_us", float64(kit.Percentile(lats, 0.50))/1e3, len(lats))
	rss, err := peakRSSMB(wr.srv.pid())
	if err != nil {
		return err
	}
	res.set("rss_mb", rss, 1)

	res.notef("p99 %.1f us (reported, not bounded: see README); depth-1 rate %.0f/s; median window %.0f/s over %d windows of %v",
		float64(kit.Percentile(lats, 0.99))/1e3, float64(len(rtt.lat))/rttDur.Seconds(), kit.Median(rates), len(rates), window(pipeDur))
	if gen, srv := genCPU1-genCPU0, srvCPU1-srvCPU0; gen+srv > 0 {
		res.notef("generator CPU share %.2f (generator %.2f s, server %.2f s)", gen/(gen+srv), gen, srv)
	}
	if stats, err := wr.control("STATS"); err == nil && o.w.Coalesce {
		if b := field(stats, "batches"); b > 0 {
			res.notef("coalesced batch mean %.2f (STATS batched/batches)", field(stats, "batched")/b)
		}
	}
	if o.w.Mixed {
		g := rtt.only(false)
		slices.Sort(g.lat)
		res.notef("GETs beside the writes at depth 1: p50 %.1f us over %d replies", float64(kit.Percentile(g.lat, 0.5))/1e3, len(g.lat))
	}
	if o.w.Durable {
		recovery, err := wr.crashAndRecover(res)
		if err != nil {
			return err
		}
		wr.tally(res)
		persist, _ := wr.control("PERSIST")
		res.notef("SIGKILL -> first correct reply %.3f s, %.0f ops replayed; process-crash durability only: the OS cache survives SIGKILL",
			recovery, field(persist, "replayedops"))
	}
	if res.Failed > 0 {
		res.notef("server log kept at %s", e.saveLog(wr.srv))
	}
	return nil
}

// libRun is a built tree with its inputs.
type libRun struct {
	pairs   []hbtree.Pair[uint64]
	tree    *hbtree.Tree[uint64]
	batches *kit.Batches
	setups  []float64
}

func startLib(o runOpts) (*libRun, error) {
	n := o.w.Pairs(o.smoke)
	lr := &libRun{pairs: hbtree.GeneratePairs[uint64](n, kit.DatasetSeed)}
	for i := 0; i < setupRounds; i++ {
		if lr.tree != nil {
			lr.tree.Close()
			lr.tree = nil
		}
		// Collect first, so the timed build reuses heap the last round
		// freed instead of racing the collector for fresh pages.
		runtime.GC()
		t0 := time.Now()
		t, err := hbtree.New(lr.pairs, hbtree.Options{})
		if err != nil {
			return nil, err
		}
		lr.setups = append(lr.setups, time.Since(t0).Seconds())
		lr.tree = t
	}
	size := kit.BatchQueries
	if o.smoke {
		size = 4096
	}
	lr.batches = kit.NewBatches(lr.pairs, o.seed, kit.BatchSets, size)
	return lr, nil
}

// loop calls LookupBatch for d, checking every result outside the timed
// call, and returns each call's host time.
func (lr *libRun) loop(d time.Duration, res *result, tr *tracer) (durs []int64) {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		c := i % len(lr.batches.Queries)
		t0 := time.Now()
		values, found, _, err := lr.tree.LookupBatch(lr.batches.Queries[c])
		t1 := time.Now()
		n := len(lr.batches.Queries[c])
		res.Attempted += n
		if err != nil {
			res.Failed += n
			if res.FirstError == "" {
				res.FirstError = err.Error()
			}
			continue
		}
		if bad := lr.batches.Mismatches(c, values, found); bad > 0 {
			res.Failed += bad
			if res.FirstError == "" {
				res.FirstError = fmt.Sprintf("batch %d: %d of %d results differ from the model", i, bad, n)
			}
		}
		durs = append(durs, int64(t1.Sub(t0)))
		if tr != nil {
			tr.spans = append(tr.spans, kit.Span{Name: "hbtree.lookup_batch", Req: i, N: n,
				Start: int64(t0.Sub(start)), End: int64(t1.Sub(start))})
		}
	}
	return durs
}

// busyRates groups consecutive calls into chunks of at least chunkNs of
// timed work and returns each chunk's queries per second of host time
// inside the calls (the checking between calls is not library time).
func busyRates(durs []int64, queries int, chunkNs int64) []float64 {
	var rates []float64
	var busy int64
	calls := 0
	for _, d := range durs {
		busy += d
		calls++
		if busy >= chunkNs {
			rates = append(rates, float64(calls*queries)/(float64(busy)/1e9))
			busy, calls = 0, 0
		}
	}
	return rates
}

// runLib is the untraced lib-batch run.
func runLib(o runOpts, res *result) error {
	lr, err := startLib(o)
	if err != nil {
		return err
	}
	defer lr.tree.Close()
	warm, _, _ := o.phases()
	lr.loop(warm, &result{}, nil)
	total := time.Duration(o.seconds * float64(time.Second))
	durs := lr.loop(total, res, nil)
	if len(durs) == 0 {
		return fmt.Errorf("lib-batch: no call finished in %v", total)
	}
	queries := len(lr.batches.Queries[0])

	res.set("setup_s", kit.Median(lr.setups), len(lr.setups))
	res.notef("set-ups %.3f s", lr.setups)
	rates := busyRates(durs, queries, int64(window(total)))
	res.set("qps", sustained(rates), len(durs))
	sorted := slices.Clone(durs)
	slices.Sort(sorted)
	res.set("p50_us", float64(kit.Percentile(sorted, 0.50))/1e3, len(sorted))
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	res.set("rss_mb", rss, 1)
	res.notef("%d calls of %d queries; p99 %.1f us (reported, not bounded: see README); median window %.0f/s",
		len(durs), queries, float64(kit.Percentile(sorted, 0.99))/1e3, kit.Median(rates))
	return nil
}

// warnHost reports a host the load shape was not designed for.
func warnHost() {
	if runtime.NumCPU() < kit.Conns {
		fmt.Fprintf(os.Stderr, "benchmark: warning: %d CPU(s); the load shape assumes at least %d, generator and server will contend\n",
			runtime.NumCPU(), kit.Conns)
	}
}
