// Package vclock provides the virtual-time primitives used by the
// HB+-tree performance model.
//
// The reproduction executes every algorithm functionally (real data, real
// results) while performance is accounted on a virtual clock: hardware
// components (CPU memory system, PCIe bus, GPU compute) charge durations
// derived from the calibrated platform model rather than from wall time.
// This package holds the duration type, unit helpers, and the small
// resource-timeline scheduler that reproduces the CPU-GPU pipelining
// algebra of Section 5.4 of the paper (Figures 5 and 6).
package vclock

import (
	"fmt"
	"sort"
	"sync"
)

// Duration is a span of virtual time in nanoseconds. A float64 is used so
// that sub-nanosecond per-item costs accumulate without truncation.
type Duration float64

// Common units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds returns d as a float64 count of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns d as a float64 count of microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	default:
		return fmt.Sprintf("%.1fns", float64(d))
	}
}

// Max returns the larger of a and b.
func Max(a, b Duration) Duration {
	if a > b {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b Duration) Duration {
	if a < b {
		return a
	}
	return b
}

// Resource identifies a hardware unit that executes at most one operation
// at a time on the virtual timeline. The set below matches the units that
// matter for the paper's bucket pipeline: the two PCIe copy directions,
// GPU kernel execution, and the CPU worker pool treated as one station.
type Resource int

// Timeline resources.
const (
	ResPCIeH2D Resource = iota // host-to-device copy engine
	ResPCIeD2H                 // device-to-host copy engine
	ResGPU                     // GPU compute (kernel execution)
	ResCPU                     // CPU batch-processing station
	numResources
)

// String returns the resource name.
func (r Resource) String() string {
	switch r {
	case ResPCIeH2D:
		return "PCIeH2D"
	case ResPCIeD2H:
		return "PCIeD2H"
	case ResGPU:
		return "GPU"
	case ResCPU:
		return "CPU"
	}
	return fmt.Sprintf("Resource(%d)", int(r))
}

// Op records one scheduled operation on the timeline, for inspection by
// tests and by the harness when it prints pipeline traces.
type Op struct {
	Stream   int
	Resource Resource
	Label    string
	Start    Duration
	End      Duration
}

// Timeline is a discrete-event scheduler over exclusive resources. Each
// stream is an ordered sequence of operations (like a CUDA stream): an
// operation starts when both its stream's previous operation has finished
// and its resource is free. This reproduces the overlap structure of the
// paper's sequential, pipelined and double-buffered bucket handling.
//
// Timeline is safe for concurrent use; the functional executors schedule
// from multiple goroutines.
type Timeline struct {
	mu       sync.Mutex
	resource [numResources]Duration // next free time per resource
	stream   map[int]Duration       // next free time per stream
	ops      []Op
	trace    bool
}

// NewTimeline returns an empty timeline at virtual time zero.
func NewTimeline() *Timeline {
	return &Timeline{stream: make(map[int]Duration)}
}

// SetTrace enables recording of every operation for later inspection.
func (t *Timeline) SetTrace(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.trace = on
}

// Schedule places an operation of length d on resource r within stream s
// and returns its start and end virtual times.
func (t *Timeline) Schedule(streamID int, r Resource, label string, d Duration) (start, end Duration) {
	if d < 0 {
		d = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	start = Max(t.resource[r], t.stream[streamID])
	end = start + d
	t.resource[r] = end
	t.stream[streamID] = end
	if t.trace {
		t.ops = append(t.ops, Op{Stream: streamID, Resource: r, Label: label, Start: start, End: end})
	}
	return start, end
}

// AdvanceStream moves a stream's ready time forward to at least ts,
// modelling an external dependency (e.g. waiting on another stream's
// event) without occupying any resource.
func (t *Timeline) AdvanceStream(streamID int, ts Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ts > t.stream[streamID] {
		t.stream[streamID] = ts
	}
}

// StreamTime reports when the stream's last scheduled operation completes.
func (t *Timeline) StreamTime(streamID int) Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stream[streamID]
}

// Now reports the completion time of the latest operation over all
// resources: the makespan of the schedule so far.
func (t *Timeline) Now() Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var m Duration
	for _, v := range t.resource {
		if v > m {
			m = v
		}
	}
	return m
}

// BusyTime reports the total busy time of one resource.
func (t *Timeline) BusyTime(r Resource) Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var busy Duration
	for _, op := range t.ops {
		if op.Resource == r {
			busy += op.End - op.Start
		}
	}
	return busy
}

// Ops returns a copy of the recorded operations sorted by start time.
// Recording requires SetTrace(true).
func (t *Timeline) Ops() []Op {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Op, len(t.ops))
	copy(out, t.ops)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].End < out[j].End
	})
	return out
}

// Reset returns the timeline to virtual time zero, discarding history.
// The stream table and trace storage are retained (cleared, not
// reallocated) so a pooled timeline can be reused without allocating.
func (t *Timeline) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.resource {
		t.resource[i] = 0
	}
	clear(t.stream)
	t.ops = t.ops[:0]
}
