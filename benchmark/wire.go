package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"time"

	"hbtree/benchmark/kit"
)

// grace is how long after a phase deadline a connection may still be
// waiting for replies before the socket deadline fails them: a hung
// server costs failed ops, never a parked run.
const grace = 5 * time.Second

// samples are the completions of one phase on one connection: when each
// reply arrived (ns after the phase start), how long it took, and
// whether it acknowledged a write.
type samples struct {
	at    []int64
	lat   []int64
	write []bool
}

func (s *samples) add(at, lat time.Duration, write bool) {
	s.at = append(s.at, int64(at))
	s.lat = append(s.lat, int64(lat))
	s.write = append(s.write, write)
}

// client is one connection with its op stream and its failure count.
type client struct {
	id        int
	c         net.Conn
	r         *bufio.Reader
	w         *bufio.Writer
	st        *kit.Stream
	req, want []byte

	attempted int
	failed    int
	firstErr  string // the first failure, for the report
	doing     string // what the connection is doing, for that report

	gets, writes int // ops sent so far, to number trace request groups
}

func dial(addr string, id int, st *kit.Stream) (*client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &client{id: id, c: c, r: bufio.NewReaderSize(c, 16<<10), w: bufio.NewWriterSize(c, 16<<10), st: st}, nil
}

func (cl *client) fail(format string, args ...any) {
	cl.failed++
	if cl.firstErr == "" {
		cl.firstErr = fmt.Sprintf("conn %d, %s: ", cl.id, cl.doing) + fmt.Sprintf(format, args...)
	}
}

// send buffers op's request line.
func (cl *client) send(op kit.Op) error {
	b := cl.req[:0]
	switch op.Kind {
	case kit.Get:
		b = append(b, "GET "...)
	case kit.Put:
		b = append(b, "PUT "...)
	case kit.Del:
		b = append(b, "DEL "...)
	}
	b = strconv.AppendUint(b, op.Key, 10)
	if op.Kind == kit.Put {
		b = append(b, ' ')
		b = strconv.AppendUint(b, op.Val, 10)
	}
	b = append(b, '\n')
	cl.req = b
	_, err := cl.w.Write(b)
	return err
}

// recv reads one reply line and checks it against the model. A reply
// that differs is a failed op; only a transport error is returned.
func (cl *client) recv(op kit.Op) error {
	line, err := cl.r.ReadSlice('\n')
	if err != nil {
		return err
	}
	w := cl.want[:0]
	switch {
	case op.Kind == kit.Put, op.Kind == kit.Del && op.Found:
		w = append(w, "OK\n"...)
	case !op.Found:
		w = append(w, "NOTFOUND\n"...)
	default:
		w = append(w, "VALUE "...)
		w = strconv.AppendUint(w, op.Want, 10)
		w = append(w, '\n')
	}
	cl.want = w
	if !bytes.Equal(line, w) {
		cl.fail("%v %d: got %q, want %q", op.Kind, op.Key, line, w)
	}
	return nil
}

// roundTrip sends one op and waits for its reply.
func (cl *client) roundTrip(op kit.Op) error {
	if err := cl.send(op); err != nil {
		return err
	}
	if err := cl.w.Flush(); err != nil {
		return err
	}
	return cl.recv(op)
}

// tracer collects the top-rung spans of one connection; nil when
// tracing is off.
type tracer struct {
	spans []kit.Span
}

// rtt runs the latency phase: exactly one request outstanding, each
// timed from just before its bytes are written to just after its reply
// line is read.
func (cl *client) rtt(start time.Time, d time.Duration, tr *tracer) samples {
	var out samples
	cl.doing = "depth 1"
	deadline := start.Add(d)
	cl.c.SetDeadline(deadline.Add(grace))
	// The deadline is checked before an op is generated: generating one
	// advances the model, so every generated op must be sent.
	for time.Now().Before(deadline) {
		op := cl.st.Next()
		t0 := time.Now()
		cl.attempted++
		if err := cl.roundTrip(op); err != nil {
			cl.fail("%v", err)
			return out
		}
		t1 := time.Now()
		out.add(t1.Sub(start), t1.Sub(t0), op.Kind != kit.Get)
		if tr != nil {
			sp := kit.Span{N: 1, Start: int64(t0.Sub(start)), End: int64(t1.Sub(start))}
			if op.Kind == kit.Get {
				sp.Name, sp.Req = "hbserve.get", cl.gets/kit.Block
			} else {
				sp.Name, sp.Req = "hbserve.put", cl.writes
			}
			tr.spans = append(tr.spans, sp)
		}
		if op.Kind == kit.Get {
			cl.gets++
		} else {
			cl.writes++
		}
	}
	return out
}

// pipe runs the throughput phase: a sliding window of PipeDepth
// requests outstanding, refilled half a window at a time, so between
// PipeDepth/2 and PipeDepth requests are on the wire and the server is
// never waiting on bytes the client is sitting on. One write per reply
// instead would wake the server's poller once per reply, and on the
// coalescing server those wake-ups, not the window timer, then decide
// when a batch flushes.
func (cl *client) pipe(start time.Time, d time.Duration) samples {
	var out samples
	cl.doing = "pipelined"
	deadline := start.Add(d)
	cl.c.SetDeadline(deadline.Add(grace))
	// The channel is the window: an op enters it before its request is
	// written and leaves when the reader turns to its reply, so at most
	// cap+1 requests are outstanding.
	window := make(chan kit.Op, kit.PipeDepth-1)
	sendErr := make(chan error, 1)
	go func() {
		defer close(window)
		for i := 1; time.Now().Before(deadline); i++ {
			op := cl.st.Next()
			window <- op
			if err := cl.send(op); err != nil {
				sendErr <- err
				return
			}
			if i%(kit.PipeDepth/2) == 0 {
				if err := cl.w.Flush(); err != nil {
					sendErr <- err
					return
				}
			}
		}
		if err := cl.w.Flush(); err != nil {
			sendErr <- err
		}
	}()
	broken := false
	for op := range window {
		cl.attempted++
		if broken {
			cl.failed++ // sent or queued behind a dead connection
			continue
		}
		if err := cl.recv(op); err != nil {
			cl.fail("%v", err)
			cl.c.Close() // unblocks the sender
			broken = true
			continue
		}
		out.add(time.Since(start), 0, op.Kind != kit.Get)
	}
	select {
	case err := <-sendErr:
		if !broken {
			cl.fail("send: %v", err)
		}
	default:
	}
	return out
}

// merge concatenates per-connection samples.
func merge(parts []samples) samples {
	var m samples
	for _, p := range parts {
		m.at = append(m.at, p.at...)
		m.lat = append(m.lat, p.lat...)
		m.write = append(m.write, p.write...)
	}
	return m
}

// only returns the samples whose write flag equals w.
func (s samples) only(w bool) samples {
	var out samples
	for i := range s.at {
		if s.write[i] == w {
			out.at = append(out.at, s.at[i])
			out.lat = append(out.lat, s.lat[i])
			out.write = append(out.write, w)
		}
	}
	return out
}
