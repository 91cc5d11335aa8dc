package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"hbtree/benchmark/kit"
)

// A traced run measures the ladder, not the workload's end-to-end
// metrics. It has three parts:
//
//  1. the wire rungs, timed by this process around real requests: the
//     read side on the workload's own server (the default server for
//     lib-batch, which has none), the write side on
//     wire-mixed-durable's server, and that server once more without a
//     data dir (a PUT with no WAL under it: what the wire adds to one);
//     each visit runs depth 1 with client-side spans off and then on
//     and a pipelined phase, and the durable one ends with the crash
//     and recovery;
//  2. for lib-batch, the LookupBatch loop with spans off and on;
//  3. the hbladder subprocess, which replays the same seeded streams at
//     every layer below the wire.
//
// Every per-layer metric is measured on every workload, so a layer the
// workload never touches still reports what it costs: the README's
// table says which of them the workload's end-to-end metrics depend on.

// ladderTimeout bounds the subprocess; a hung rung fails the run.
const ladderTimeout = 150 * time.Second

// wireTrace is what one traced server visit yields.
type wireTrace struct {
	w        kit.Workload
	off, on  samples // depth-1 phases with spans off and on
	pipe     samples
	phase    time.Duration // length of each of the three phases
	spans    []kit.Span    // connection 0's spans of the "on" phase
	stats    string        // STATS line after the phases
	persist  string        // PERSIST line after the phases (durable only)
	genCPU   float64       // generator CPU seconds over the phases
	srvCPU   float64       // server CPU seconds over the phases
	recovery float64       // SIGKILL -> first correct reply, seconds
	replayed float64       // PERSIST replayedops after recovery
}

// tracedWire visits one server: set-up, warm-up, depth-1 with spans
// off, depth-1 with spans on, pipelined, counters, and for a durable
// server the kill, recovery and read-back.
func tracedWire(e *env, o runOpts, w kit.Workload, tag string, res *result) (*wireTrace, error) {
	wr, err := startWire(e, o, w, tag, 1)
	if err != nil {
		return nil, err
	}
	defer wr.close()
	warm, _, _ := o.phases()
	wt := &wireTrace{w: w, phase: time.Duration(o.seconds * float64(time.Second) / 8)}
	wr.phase(func(cl *client, start time.Time) samples { return cl.rtt(start, warm, nil) })
	srv0, _ := wr.srv.cpuSeconds()
	gen0 := selfCPUSeconds()
	wt.off = wr.phase(func(cl *client, start time.Time) samples { return cl.rtt(start, wt.phase, nil) })
	for _, cl := range wr.clients {
		cl.gets, cl.writes = 0, 0 // request groups count from the first traced op
	}
	tracers := make([]*tracer, len(wr.clients))
	wt.on = wr.phase(func(cl *client, start time.Time) samples {
		tracers[cl.id] = &tracer{}
		return cl.rtt(start, wt.phase, tracers[cl.id])
	})
	wt.spans = tracers[0].spans
	wt.pipe = wr.phase(func(cl *client, start time.Time) samples { return cl.pipe(start, wt.phase) })
	srv1, _ := wr.srv.cpuSeconds()
	wt.genCPU, wt.srvCPU = selfCPUSeconds()-gen0, srv1-srv0
	wr.tally(res)
	if wt.stats, err = wr.control("STATS"); err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	if w.Durable {
		if wt.persist, err = wr.control("PERSIST"); err != nil {
			return nil, fmt.Errorf("PERSIST: %w", err)
		}
		if wt.recovery, err = wr.crashAndRecover(res); err != nil {
			return nil, err
		}
		wr.tally(res)
		after, err := wr.control("PERSIST")
		if err != nil {
			return nil, fmt.Errorf("PERSIST: %w", err)
		}
		wt.replayed = field(after, "replayedops")
	}
	if res.Failed > 0 {
		res.notef("server log kept at %s", e.saveLog(wr.srv))
	}
	return wt, nil
}

// runLadder starts hbladder and returns its metrics and spans.
func runLadder(e *env, o runOpts, ops, writes int) (*kit.LadderOutput, []kit.Span, error) {
	tracePath := filepath.Join(e.workDir, "ladder-spans.json")
	args := []string{"-workload", o.w.Name, "-seed", strconv.FormatUint(o.seed, 10),
		"-ops", strconv.Itoa(ops), "-writes", strconv.Itoa(writes),
		"-workdir", filepath.Join(e.workDir, "ladder"), "-trace-out", tracePath}
	if o.smoke {
		args = append(args, "-smoke")
	}
	ctx, cancel := context.WithTimeout(context.Background(), ladderTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, e.ladder, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(kit.Conns))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("hbladder: %v\n%s", err, stderr.Bytes())
	}
	var out kit.LadderOutput
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &out); err != nil {
		return nil, nil, fmt.Errorf("hbladder output: %w", err)
	}
	spans, err := kit.ReadTrace(tracePath)
	if err != nil {
		return nil, nil, err
	}
	return &out, spans, nil
}

func p50p99us(lat []int64) (p50, p99 float64) {
	s := slices.Clone(lat)
	slices.Sort(s)
	return float64(kit.Percentile(s, 0.50)) / 1e3, float64(kit.Percentile(s, 0.99)) / 1e3
}

func runTraced(e *env, o runOpts) (*result, error) {
	res := &result{Workload: o.w.Name, Seed: o.seed, Traced: true, Metrics: map[string]value{}}
	var spans []kit.Span
	var overhead float64

	readW := o.w
	if !o.w.Wire {
		// lib-batch has no server; its wire rungs visit the default one.
		readW, _ = kit.Find("wire-get")
		lr, err := startLib(o)
		if err != nil {
			return nil, err
		}
		warm, _, _ := o.phases()
		part := time.Duration(o.seconds * float64(time.Second) / 8)
		lr.loop(warm, &result{}, nil)
		var tr tracer
		off := lr.loop(part, res, nil)
		on := lr.loop(part, res, &tr)
		lr.tree.Close()
		if len(off) == 0 || len(on) == 0 {
			return nil, fmt.Errorf("lib-batch: no call finished in %v", part)
		}
		offP50, _ := p50p99us(off)
		onP50, _ := p50p99us(on)
		overhead = onP50/offP50 - 1
		_, p99 := p50p99us(append(off, on...))
		res.set("p99_us", p99, len(off)+len(on))
		spans = append(spans, tr.spans...)
	}
	read, err := tracedWire(e, o, readW, "read", res)
	if err != nil {
		return nil, err
	}
	mixed, _ := kit.Find("wire-mixed-durable")
	write := read
	if !readW.Durable {
		if write, err = tracedWire(e, o, mixed, "write", res); err != nil {
			return nil, err
		}
	}
	mixed.Durable = false
	volatile, err := tracedWire(e, o, mixed, "volatile", res)
	if err != nil {
		return nil, err
	}
	// Connection 0's spans: GETs from the read side, PUT/DELs from the
	// write side, and the WAL-less PUT/DELs under their own name.
	for _, sp := range read.spans {
		if sp.Name == "hbserve.get" {
			spans = append(spans, sp)
		}
	}
	for _, sp := range write.spans {
		if sp.Name == "hbserve.put" {
			spans = append(spans, sp)
		}
	}
	for _, sp := range volatile.spans {
		if sp.Name == "hbserve.put" {
			sp.Name = "hbserve.put_nowal"
			spans = append(spans, sp)
		}
	}

	gets, puts := 0, 0
	for _, sp := range spans {
		switch sp.Name {
		case "hbserve.get":
			gets++
		case "hbserve.put":
			puts++
		}
	}
	lad, ladSpans, err := runLadder(e, o, max(kit.Block, min(gets, 200000)), max(24, min(puts, 400)))
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = res.Attempted+lad.Attempted, res.Failed+lad.Failed
	if res.FirstError == "" {
		res.FirstError = lad.FirstError
	}
	for name, v := range lad.Metrics {
		res.set(name, v.Value, v.Samples)
	}
	spans = append(spans, ladSpans...)

	// The wire rungs.
	own := merge([]samples{read.off, read.on})
	if o.w.Wire {
		_, p99 := p50p99us(own.lat)
		res.set("p99_us", p99, len(own.lat))
	}
	readGets := merge([]samples{read.off.only(false), read.on.only(false)})
	p50, p99 := p50p99us(readGets.lat)
	res.set("hbserve.get_p50_us", p50, len(readGets.lat))
	res.set("hbserve.get_p99_us", p99, len(readGets.lat))
	depth1 := float64(len(read.off.at)+len(read.on.at)) / (2 * read.phase.Seconds())
	pipeRates := kit.WindowRates(read.pipe.at, int64(window(read.phase)), int64(read.phase))
	res.set("hbserve.pipe_gain", sustained(pipeRates)/depth1, len(read.pipe.at))
	child := "serve.lookup_ns"
	if readW.Coalesce {
		child = "serve.coalesce_ns"
	}
	getNs, groups := kit.PerOpP50(spans, "hbserve.get")
	res.set("hbserve.get_self_ns", getNs-res.Metrics[child].Value, groups)
	if !o.w.Wire {
		// lib-batch's overhead was measured on its own loop above.
	} else if off, _ := p50p99us(read.off.lat); off > 0 {
		on, _ := p50p99us(read.on.lat)
		overhead = on/off - 1
	}
	res.set("benchmark.trace_overhead", overhead, len(read.on.at))
	res.set("benchmark.gen_cpu_share", read.genCPU/(read.genCPU+read.srvCPU), 1)
	if b := field(read.stats, "batches"); b > 0 {
		res.notef("STATS after the read side: coalesced batch mean %.2f (batched/batches)", field(read.stats, "batched")/b)
	}

	acks := merge([]samples{write.off.only(true), write.on.only(true)})
	p50, p99 = p50p99us(acks.lat)
	res.set("hbserve.put_p50_us", p50, len(acks.lat))
	res.set("hbserve.put_p99_us", p99, len(acks.lat))
	putRates := kit.WindowRates(write.pipe.only(true).at, int64(window(write.phase)), int64(write.phase))
	res.set("hbserve.put_qps", sustained(putRates), len(write.pipe.only(true).at))
	// Over the wire a PUT reaches the group commit at a random point of
	// its window and the replayed Durable.UpdateCtx right after the last
	// one, so their difference is mostly tick phase. The wire's share of
	// a PUT is read off the server with no WAL instead.
	putNs, groups := kit.PerOpP50(spans, "hbserve.put_nowal")
	res.set("hbserve.put_self_ns", putNs-res.Metrics["serve.update_ns"].Value, groups)
	res.set("hbserve.recovery_s", write.recovery, 1)
	res.set("hbserve.replayed_ops", write.replayed, 1)
	if ops := field(write.persist, "ops"); ops > 0 {
		res.set("wal.bytes_per_put", field(write.persist, "walbytes")/ops, int(ops))
		res.set("wal.syncs_per_put", field(write.persist, "syncs")/field(write.persist, "appends"), int(ops))
	}
	res.notef("recovery is process-crash durability only: the OS cache survives SIGKILL")

	for _, m := range perLayer {
		if _, ok := res.Metrics[m.Name]; !ok {
			return nil, fmt.Errorf("traced run of %s did not produce %s", o.w.Name, m.Name)
		}
	}
	tracePath := filepath.Join(e.outDir, "trace-"+o.w.Name+".json")
	if err := kit.WriteTrace(tracePath, o.w.Name, o.seed, spans); err != nil {
		return nil, err
	}
	res.notef("spans: %s", tracePath)
	res.notef("self times, ns per op (a rung's span minus its children's, over the request groups all rungs share):\n%s",
		kit.FormatSelfTable(kit.SelfTimes(spans)))
	res.Correct = res.Failed == 0
	return res, nil
}
