package kit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// Block is how many consecutive point ops share one request group. An
// in-process rung times a whole block with one clock pair — the clock
// costs as much as the fastest rungs — and the wire rung's per-op spans
// are summed over the same block before rungs are compared.
const Block = 64

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Req groups the spans that served the
// same requests on every rung: block index for point ops, batch index
// for batches, write index for PUT/DEL. N is how many ops the span
// covers. Start and End are nanoseconds on the recording process's
// monotonic clock; rungs are replayed one after another, so only the
// durations of different rungs are comparable, not their positions.
type Span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"` // the rung above; "" for a top rung
	Req    int    `json:"req"`
	N      int    `json:"n"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// SelfRow is one rung of a self-time table, per op, averaged over the
// request groups the rung shares with its parent chain.
type SelfRow struct {
	Name    string
	Parent  string
	Groups  int
	SpanNs  float64 // mean time per op inside the rung
	SelfNs  float64 // SpanNs minus the children's SpanNs
	SelfP50 float64 // median over groups of (span - children) per op
}

type groupKey struct {
	name string
	req  int
}

// groupSum is the time and the ops of one rung's spans in one group.
type groupSum struct {
	dur int64
	n   int
}

func (g groupSum) perOp() float64 { return float64(g.dur) / float64(g.n) }

// groupSums adds up the spans of each (rung, request group).
func groupSums(spans []Span) map[groupKey]groupSum {
	sums := make(map[groupKey]groupSum)
	for _, sp := range spans {
		k := groupKey{sp.Name, sp.Req}
		g := sums[k]
		g.dur += sp.End - sp.Start
		g.n += sp.N
		sums[k] = g
	}
	return sums
}

// SelfTimes computes each rung's self time: per request group, the time
// per op inside the rung minus the time per op inside its child rungs
// for the same group. Only groups present on every rung of a tree are
// used, so the rows of one tree telescope: their SelfNs sum to the top
// rung's SpanNs.
func SelfTimes(spans []Span) []SelfRow {
	sums := groupSums(spans)
	parent := make(map[string]string)
	var names []string
	for _, sp := range spans {
		if _, ok := parent[sp.Name]; !ok {
			parent[sp.Name] = sp.Parent
			names = append(names, sp.Name)
		}
	}
	children := make(map[string][]string)
	for _, n := range names {
		if p := parent[n]; p != "" {
			children[p] = append(children[p], n)
		}
	}
	root := func(n string) string {
		for parent[n] != "" {
			if _, ok := parent[parent[n]]; !ok {
				break // parent rung was not recorded: n is the top of what exists
			}
			n = parent[n]
		}
		return n
	}
	// The request groups common to every rung of each tree.
	common := make(map[string]map[int]int) // root -> req -> rungs present
	rungs := make(map[string]int)
	for _, n := range names {
		rungs[root(n)]++
	}
	for k := range sums {
		r := root(k.name)
		if common[r] == nil {
			common[r] = make(map[int]int)
		}
		common[r][k.req]++
	}
	perOp := func(name string, req int) float64 { return sums[groupKey{name, req}].perOp() }
	var rows []SelfRow
	for _, n := range names {
		r := root(n)
		var span, self []float64
		for req, present := range common[r] {
			if present != rungs[r] {
				continue
			}
			s := perOp(n, req)
			c := 0.0
			for _, ch := range children[n] {
				c += perOp(ch, req)
			}
			span = append(span, s)
			self = append(self, s-c)
		}
		row := SelfRow{Name: n, Parent: parent[n], Groups: len(span)}
		if len(span) > 0 {
			row.SpanNs, row.SelfNs, row.SelfP50 = mean(span), mean(self), Median(self)
		}
		rows = append(rows, row)
	}
	return rows
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// PerOpP50 returns the median over request groups of the time per op
// inside the named rung, and how many groups there were.
func PerOpP50(spans []Span, name string) (float64, int) {
	var vals []float64
	for k, g := range groupSums(spans) {
		if k.name == name {
			vals = append(vals, g.perOp())
		}
	}
	return Median(vals), len(vals)
}

// FormatSelfTable renders the rows as the per-workload self-time table,
// children indented under their parents, with the telescoping check.
func FormatSelfTable(rows []SelfRow) string {
	byParent := make(map[string][]SelfRow)
	known := make(map[string]bool)
	for _, r := range rows {
		known[r.Name] = true
	}
	for _, r := range rows {
		p := r.Parent
		if !known[p] {
			p = ""
		}
		byParent[p] = append(byParent[p], r)
	}
	out := fmt.Sprintf("%-34s %8s %12s %12s %12s\n", "rung", "groups", "span ns/op", "self ns/op", "self p50")
	var walk func(p string, depth int) float64
	walk = func(p string, depth int) float64 {
		sum := 0.0
		for _, r := range byParent[p] {
			name := fmt.Sprintf("%*s%s", 2*depth, "", r.Name)
			out += fmt.Sprintf("%-34s %8d %12.1f %12.1f %12.1f\n", name, r.Groups, r.SpanNs, r.SelfNs, r.SelfP50)
			sub := r.SelfNs + walk(r.Name, depth+1)
			if depth == 0 && len(byParent[r.Name]) > 0 && r.SpanNs > 0 {
				out += fmt.Sprintf("%-34s %8s %12.1f  (%.1f %% of the top span)\n", "  sum of self times", "", sub, 100*sub/r.SpanNs)
			}
			sum += sub
		}
		return sum
	}
	walk("", 0)
	return out
}

// WriteTrace writes the spans as one JSON document; see the README for
// how to read it. The encoding is by hand because a traced run holds a
// few hundred thousand spans.
func WriteTrace(path, workload string, seed uint64, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"block\":%d,\"spans\":[\n", workload, seed, Block)
	for i, sp := range spans {
		sep := ","
		if i == len(spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"name\":%q,\"parent\":%q,\"req\":%d,\"n\":%d,\"start_ns\":%d,\"end_ns\":%d}%s\n",
			sp.Name, sp.Parent, sp.Req, sp.N, sp.Start, sp.End, sep)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// ReadTrace loads the spans of a file WriteTrace wrote.
func ReadTrace(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return doc.Spans, nil
}

// LadderOutput is the one line hbladder prints and the traced run
// parses: its checks and its per-layer metrics with sample counts.
type LadderOutput struct {
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	FirstError string                 `json:"first_error,omitempty"`
	Metrics    map[string]LadderValue `json:"metrics"`
}

// LadderValue is one per-layer metric with the number of timings behind it.
type LadderValue struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}
