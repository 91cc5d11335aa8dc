package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
)

// Wall-clock overload scenarios (DESIGN §11): traffic shapes where a
// statically tuned admission window is wrong for most of the run —
// a flash crowd (step arrival spike), a diurnal swell (slow sinusoid),
// and a hot-key migration (the popular key range jumps shards mid-run).
// Each run is split into three equal named phases and latency is
// accounted per phase, because a single whole-run p99 hides exactly the
// window the scenarios exist to expose. Clients honour shed retry-after
// hints by backing off, so the drivers measure the protocol loop
// (admission → typed shed → client backoff), not just the server.

// Scenario kinds.
const (
	ScenarioFlash    = "flash"     // step ×PeakFactor arrival spike in the middle third
	ScenarioDiurnal  = "diurnal"   // sinusoidal arrival swell peaking mid-run
	ScenarioHotShift = "hot-shift" // hot key quarter migrates across the key space mid-run
)

// ScenarioOptions configures one overload scenario run.
type ScenarioOptions struct {
	// Kind selects the traffic shape (ScenarioFlash default).
	Kind string

	// BaseClients is the steady-state client count (2 default);
	// PeakFactor scales it during the spike / at the sinusoid's peak
	// (8 default). The hot-shift scenario runs a constant 2×BaseClients.
	BaseClients int
	PeakFactor  int

	// Depth is the per-client pipeline depth (128 default).
	Depth int

	// Duration is the whole run, split into three equal phases
	// (1.5s default).
	Duration time.Duration

	// Shards > 1 selects the sharded backend; the default is the
	// single-tree snapshot server.
	Shards int

	// Coalescer shape: MaxBatch (256), Window (200µs) and QueueShards
	// (Options.Shards, 1 default so batch formation and admission are
	// deterministic per run).
	MaxBatch    int
	Window      time.Duration
	QueueShards int

	// Admission: MaxPending is the window ceiling (4096 default);
	// TargetP99 turns on the adaptive controller with MinPending as its
	// floor. TargetP99 zero is the static arm — a fixed MaxPending
	// window in fail-fast mode, today's tuning. The A/B comparison runs
	// the same scenario twice varying only these.
	MaxPending int
	MinPending int
	TargetP99  time.Duration

	// FlushStall is the serialized per-flush stall (Options.FlushStall):
	// it pins the coalescer's capacity at MaxBatch/FlushStall requests
	// per second, which makes overload scenarios reproducible across
	// hosts instead of a function of how fast the tree searches.
	FlushStall time.Duration

	// UpdateFrac routes this fraction of operations to the update pump
	// (requires the regular tree variant); UpdateBatch is the pump's
	// batch size (1024 default). The hot-shift scenario defaults
	// UpdateFrac to 0.2 — migration without writes is just a read skew.
	UpdateFrac  float64
	UpdateBatch int

	// Seed makes the client streams reproducible: two runs with the
	// same options and seed offer identical traffic.
	Seed int64

	// CancelAt, when positive, hard-stops the run at that offset — the
	// coalescer is closed while clients still have requests in flight
	// (the mid-spike shutdown drill). The result carries Cancelled and
	// whatever was measured up to the stop.
	CancelAt time.Duration
}

func (o *ScenarioOptions) fillDefaults() {
	if o.Kind == "" {
		o.Kind = ScenarioFlash
	}
	if o.BaseClients <= 0 {
		o.BaseClients = 2
	}
	if o.PeakFactor <= 1 {
		o.PeakFactor = 8
	}
	if o.Depth <= 0 {
		o.Depth = 128
	}
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 256
	}
	if o.Window <= 0 {
		o.Window = 200 * time.Microsecond
	}
	if o.QueueShards <= 0 {
		o.QueueShards = 1
	}
	if o.MaxPending <= 0 {
		o.MaxPending = 4096
	}
	if o.UpdateBatch <= 0 {
		o.UpdateBatch = 1024
	}
	if o.Kind == ScenarioHotShift && o.UpdateFrac == 0 {
		o.UpdateFrac = 0.2
	}
}

// phaseNames returns the three phase labels for a scenario kind.
func phaseNames(kind string) [3]string {
	switch kind {
	case ScenarioDiurnal:
		return [3]string{"ramp-up", "peak", "ramp-down"}
	case ScenarioHotShift:
		return [3]string{"pre-shift", "shift", "settled"}
	default:
		return [3]string{"pre-spike", "spike", "recovery"}
	}
}

// PhaseStats is one phase's slice of a scenario run.
type PhaseStats struct {
	Name    string
	Lookups int64 // admitted lookups completed (sampled for latency)
	Shed    int64 // requests shed by admission during the phase
	Updates int64 // update operations pumped during the phase

	P50, P95, P99 time.Duration // latency of admitted lookups
}

// ScenarioResult is one scenario run's measurement: per-phase latency
// rows plus run totals and the admission controller's excursion.
type ScenarioResult struct {
	Kind   string
	Phases []PhaseStats

	Lookups int64
	Updates int64
	Shed    int64
	Batches int64
	Elapsed time.Duration
	MQPS    float64 // admitted lookups per second, millions

	// Controller telemetry: the target (0 = static arm), the admission
	// window's observed excursion over the run (sampled at 2ms) and its
	// final value, and the shed rate at the end of the run.
	TargetP99                      time.Duration
	AdmitMin, AdmitMax, AdmitFinal int
	ShedRate                       float64

	// Cancelled reports a CancelAt hard stop: the run ended by closing
	// the coalescer mid-flight and the totals cover only the span up to
	// the stop.
	Cancelled bool
}

func (r ScenarioResult) String() string {
	s := fmt.Sprintf("%s: %.2f MQPS (%d lookups, %d shed, %d updates in %v), window %d..%d (final %d), target %v",
		r.Kind, r.MQPS, r.Lookups, r.Shed, r.Updates, r.Elapsed.Round(time.Millisecond),
		r.AdmitMin, r.AdmitMax, r.AdmitFinal, r.TargetP99)
	for _, ph := range r.Phases {
		s += fmt.Sprintf("\n  %-10s %9d lookups %9d shed  p50 %-9v p95 %-9v p99 %v",
			ph.Name, ph.Lookups, ph.Shed,
			ph.P50.Round(time.Microsecond), ph.P95.Round(time.Microsecond), ph.P99.Round(time.Microsecond))
	}
	if r.Cancelled {
		s += "\n  (cancelled mid-run)"
	}
	return s
}

// maxPhaseSamples bounds each client's per-phase latency record.
const maxPhaseSamples = 1 << 15

// RunWallScenario builds a backend from pairs (single-tree or sharded,
// exactly as RunWall) and drives it with the scenario's
// arrival shape for opt.Duration, returning per-phase latency rows.
// Identical options and seed replay identical offered traffic, so a
// static-vs-adaptive A/B differs only in admission.
func RunWallScenario[K keys.Key](pairs []keys.Pair[K], treeOpt core.Options, opt ScenarioOptions) (ScenarioResult, error) {
	opt.fillDefaults()
	if opt.UpdateFrac > 0 && treeOpt.Variant != core.Regular {
		return ScenarioResult{}, fmt.Errorf("serve: scenario with updates requires the regular variant")
	}
	switch opt.Kind {
	case ScenarioFlash, ScenarioDiurnal, ScenarioHotShift:
	default:
		return ScenarioResult{}, fmt.Errorf("serve: unknown scenario kind %q", opt.Kind)
	}
	if opt.UpdateFrac > 0 && treeOpt.LeafFill == 0 {
		treeOpt.LeafFill = 0.875
	}

	coOpt := Options{
		MaxBatch: opt.MaxBatch, Window: opt.Window, Shards: opt.QueueShards,
		MaxPending: opt.MaxPending, MinPending: opt.MinPending,
		TargetP99: opt.TargetP99, FlushStall: opt.FlushStall,
		// The static arm sheds too: scenarios measure the overload
		// protocol, and backpressure against an arrival spike just
		// parks every client on a full window.
		Shed: true,
	}
	var backend wallBackend[K]
	var co wallCoalescer[K]
	if opt.Shards > 1 {
		s, err := BuildSharded(pairs, treeOpt, opt.Shards)
		if err != nil {
			return ScenarioResult{}, err
		}
		backend = s
		co = s.Coalesce(coOpt)
	} else {
		tree, err := core.Build(pairs, treeOpt)
		if err != nil {
			return ScenarioResult{}, err
		}
		defer tree.Close()
		srv := NewServer(tree)
		backend = srv
		co = NewCoalescer[K](srv, coOpt)
	}
	defer backend.Close()
	var closeOnce sync.Once
	closeCo := func() { closeOnce.Do(co.Close) }
	defer closeCo()

	total := opt.Duration
	phase := func(el time.Duration) int {
		p := int(3 * el / total)
		if p > 2 {
			p = 2
		}
		if p < 0 {
			p = 0
		}
		return p
	}
	// active returns how many of the client goroutines offer load at
	// offset el; the rest idle. Total goroutines cover the maximum.
	peakClients := opt.BaseClients * opt.PeakFactor
	if opt.Kind == ScenarioHotShift {
		peakClients = 2 * opt.BaseClients
	}
	active := func(el time.Duration) int {
		switch opt.Kind {
		case ScenarioDiurnal:
			x := math.Sin(math.Pi * float64(el) / float64(total))
			n := opt.BaseClients + int(math.Round(float64((opt.PeakFactor-1)*opt.BaseClients)*x*x))
			if n > peakClients {
				n = peakClients
			}
			return n
		case ScenarioHotShift:
			return peakClients
		default: // flash: step spike in the middle third
			if phase(el) == 1 {
				return peakClients
			}
			return opt.BaseClients
		}
	}
	// pick returns the key index a client draws at offset el: uniform,
	// except hot-shift where 80% of draws target the hot quarter —
	// which jumps from the bottom of the key space to the top when the
	// shift phase begins.
	pick := func(rng *rand.Rand, el time.Duration) int {
		if opt.Kind != ScenarioHotShift || rng.Float64() >= 0.8 {
			return rng.Intn(len(pairs))
		}
		q := max(1, len(pairs)/4)
		if phase(el) == 0 {
			return rng.Intn(q)
		}
		return len(pairs) - 1 - rng.Intn(q)
	}

	// Update pump: same discipline as RunWall, spans fed to the
	// admission controller.
	var updateErr error
	updates := make(chan cpubtree.Op[K], 4*opt.UpdateBatch)
	pumpDone := make(chan struct{})
	var pumpWG sync.WaitGroup
	pumpWG.Add(1)
	go func() {
		defer pumpWG.Done()
		batch := make([]cpubtree.Op[K], 0, opt.UpdateBatch)
		flush := func() {
			if len(batch) == 0 || updateErr != nil {
				batch = batch[:0]
				return
			}
			w0 := time.Now()
			_, err := backend.Update(batch, core.AsyncParallel)
			co.NoteSpan(time.Since(w0))
			if err != nil {
				updateErr = err
			}
			batch = batch[:0]
		}
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case op := <-updates:
				batch = append(batch, op)
				if len(batch) >= opt.UpdateBatch {
					flush()
				}
			case <-ticker.C:
				flush()
			case <-pumpDone:
				for {
					select {
					case op := <-updates:
						batch = append(batch, op)
					default:
						flush()
						return
					}
				}
			}
		}
	}()

	type clientStats struct {
		lookups [3]int64
		shed    [3]int64
		updates [3]int64
		lats    [3][]time.Duration
		err     error
	}
	type inflight struct {
		ch <-chan Result[K]
		t0 time.Time
		ph int
	}
	stats := make([]clientStats, peakClients)
	var stop atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < peakClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			for i := range st.lats {
				st.lats[i] = make([]time.Duration, 0, maxPhaseSamples)
			}
			rng := rand.New(rand.NewSource(opt.Seed + int64(c)*0x9E3779B9 + 1))
			ring := make([]inflight, opt.Depth)
			var head, n int
			drain := func() bool {
				fl := ring[head]
				head = (head + 1) % opt.Depth
				n--
				res := <-fl.ch
				if res.Err != nil {
					if errors.Is(res.Err, ErrOverloaded) {
						st.shed[fl.ph]++
						var oe *OverloadError
						if errors.As(res.Err, &oe) && oe.RetryAfter > 0 {
							time.Sleep(min(oe.RetryAfter, 10*time.Millisecond))
						}
						return true
					}
					if errors.Is(res.Err, ErrClosed) {
						// The CancelAt hard stop closed the coalescer
						// under us: not a failure, just the end.
						return false
					}
					st.err = res.Err
					return false
				}
				st.lookups[fl.ph]++
				if len(st.lats[fl.ph]) < cap(st.lats[fl.ph]) {
					st.lats[fl.ph] = append(st.lats[fl.ph], time.Since(fl.t0))
				}
				return true
			}
			for !stop.Load() {
				el := time.Since(start)
				if el >= total {
					break
				}
				ph := phase(el)
				if c >= active(el) {
					// Off-shift: finish what is in flight, then idle.
					for n > 0 {
						if !drain() {
							return
						}
					}
					time.Sleep(200 * time.Microsecond)
					continue
				}
				p := pairs[pick(rng, el)]
				if opt.UpdateFrac > 0 && rng.Float64() < opt.UpdateFrac {
					select {
					case updates <- cpubtree.Op[K]{Key: p.Key, Value: p.Value + 1}:
						st.updates[ph]++
					case <-time.After(10 * time.Millisecond):
						// A saturated pump is overload on the write
						// side; drop rather than park the client.
					}
					continue
				}
				if n == opt.Depth && !drain() {
					return
				}
				ring[(head+n)%opt.Depth] = inflight{ch: co.Submit(p.Key), t0: time.Now(), ph: ph}
				n++
			}
			for n > 0 {
				if !drain() {
					return
				}
			}
		}(c)
	}

	// Admission-window sampler: the controller's excursion is the
	// scenario's second headline (did it shrink into the spike and
	// recover after?).
	admitMin, admitMax := co.AdmitWindow(), co.AdmitWindow()
	samplerDone := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w := co.AdmitWindow()
				if w < admitMin {
					admitMin = w
				}
				if w > admitMax {
					admitMax = w
				}
			case <-samplerDone:
				return
			}
		}
	}()

	cancelled := false
	if opt.CancelAt > 0 && opt.CancelAt < total {
		time.Sleep(opt.CancelAt)
		cancelled = true
		stop.Store(true)
		// The drill: close the coalescer while clients still hold
		// in-flight requests. Pending requests must fail with ErrClosed
		// and every client must unwind — no drain-path deadlock.
		closeCo()
	} else {
		time.Sleep(total)
		stop.Store(true)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(pumpDone)
	pumpWG.Wait()
	close(samplerDone)
	samplerWG.Wait()
	if updateErr != nil {
		return ScenarioResult{}, updateErr
	}

	res := ScenarioResult{
		Kind:       opt.Kind,
		Elapsed:    elapsed,
		TargetP99:  opt.TargetP99,
		AdmitMin:   admitMin,
		AdmitMax:   admitMax,
		AdmitFinal: co.AdmitWindow(),
		ShedRate:   co.ShedRate(),
		Batches:    co.Batches(),
		Cancelled:  cancelled,
	}
	names := phaseNames(opt.Kind)
	var lats [3][]time.Duration
	for i := range stats {
		st := &stats[i]
		if st.err != nil {
			return ScenarioResult{}, st.err
		}
		for ph := 0; ph < 3; ph++ {
			lats[ph] = append(lats[ph], st.lats[ph]...)
		}
	}
	for ph := 0; ph < 3; ph++ {
		p := PhaseStats{Name: names[ph]}
		for i := range stats {
			p.Lookups += stats[i].lookups[ph]
			p.Shed += stats[i].shed[ph]
			p.Updates += stats[i].updates[ph]
		}
		p.P50, p.P95, p.P99 = percentiles(lats[ph])
		res.Phases = append(res.Phases, p)
		res.Lookups += p.Lookups
		res.Shed += p.Shed
		res.Updates += p.Updates
	}
	res.MQPS = float64(res.Lookups) / elapsed.Seconds() / 1e6
	return res, nil
}
