package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"occusim/internal/transport"
)

// clientCount is C = min(nproc, 4): the load generator shares the box
// with the system, so it scales with it and stops where it would crowd
// the system out.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// maxClientFailures stops a client whose sends keep failing: each one
// has already burnt a retry budget, and the run is lost anyway.
const maxClientFailures = 10

// client is one load-generating goroutine: the devices it plays, their
// batching uplinks, and what it measured. Everything here is owned by
// that goroutine while it runs.
type client struct {
	sys  *system
	devs []int
	// uplinks[k] carries devs[k]'s reports; a relay repeats one shared
	// uplink. pos[k] is devs[k]'s next position in its endless stream
	// (lap pos/150, report pos%150).
	uplinks []*transport.BatchingUplink
	pos     []int
	sink    *timedSink

	// upload is the id of the in-flight upload on a traced pass; the
	// client's RoundTripper reads it on the same goroutine.
	upload uint32
	// due, when nonzero, is the open-loop due time latencies start at.
	due int64

	sendNs  int64 // Σ uplink.Send: everything transport and below
	busyNs  int64 // the drive loop's wall time, sleeps excluded
	acks    []ackRec
	lags    []int64 // open loop: how late the generator itself sent
	sent    int     // reports handed to Send
	failed  int     // Send/Flush calls that returned an error
	lastErr error
}

func newClient(sys *system, devs []int, sink transport.Uplink, seq *transport.Sequencer, relay bool) (*client, error) {
	c := &client{}
	return c, c.init(sys, devs, sink, seq, relay)
}

func (c *client) init(sys *system, devs []int, sink transport.Uplink, seq *transport.Sequencer, relay bool) error {
	bs, ok := sink.(transport.BatchSender)
	if !ok {
		return fmt.Errorf("sink %s cannot send batches", sink.Name())
	}
	c.sys, c.devs = sys, devs
	c.pos = make([]int, len(devs))
	c.sink = &timedSink{next: bs, name: sink.Name(), c: c}
	cfg := transport.BatchConfig{FlushSeconds: flushSeconds, Sequencer: seq}
	if relay {
		cfg.MaxBatch = relayMaxBatch
	}
	var shared *transport.BatchingUplink
	for range devs {
		if shared == nil || !relay {
			up, err := transport.NewBatchingUplink(c.sink, cfg)
			if err != nil {
				return err
			}
			shared = up
		}
		c.uplinks = append(c.uplinks, shared)
	}
	return nil
}

// reserve sizes the ack log so the timed phase appends without growing.
func (c *client) reserve(batches int) {
	c.acks = make([]ackRec, 0, batches+len(c.devs)+64)
	c.lags = make([]int64, 0, batches+64)
}

// send hands device k's next report to its uplink. Nothing is
// synthesised here: a lap replays the stored stream with the report
// clock moved on by 300 s, and the uplink's Sequencer stamps a fresh
// (Epoch, Seq), so the server deduplicates nothing.
func (c *client) send(k int) {
	n := c.pos[k]
	c.pos[k]++
	rep := c.sys.streams[c.devs[k]][n%reportsPerLap]
	rep.AtSeconds += float64(n/reportsPerLap) * lapSeconds
	t := time.Now()
	err := c.uplinks[k].Send(rep)
	c.sendNs += int64(time.Since(t))
	c.sent++
	c.noteErr(err)
}

func (c *client) noteErr(err error) {
	if err != nil {
		c.failed++
		c.lastErr = err
	}
}

// drive is the closed loop: steps rounds of one report per device, in
// round-robin time order; each flush blocks until it is acknowledged.
func (c *client) drive(steps int) {
	t := time.Now()
	for i := 0; i < steps && c.failed < maxClientFailures; i++ {
		for k := range c.devs {
			c.send(k)
		}
	}
	c.busyNs += int64(time.Since(t))
}

// flush drains every uplink's tail.
func (c *client) flush() {
	t := time.Now()
	var last *transport.BatchingUplink
	for _, up := range c.uplinks {
		if up != last {
			c.noteErr(up.Flush())
			last = up
		}
	}
	d := int64(time.Since(t))
	c.sendNs += d
	c.busyNs += d
}

// pace is the open loop. Batch j of the schedule belongs to device
// j mod devices and is due at start + j×period whatever happened to the
// batches before it; this client sends the ones its devices own. A
// latency runs from the due time, so a stall is charged to every later
// batch it delays. lag is the generator's own lateness: how long after
// the batch could first have gone (due, and the client free) it went.
func (c *client) pace(start int64, period time.Duration, batches, devices, clients, self int) {
	clk := c.sys.clock
	free := start
	for j := self; j < batches && c.failed < maxClientFailures; j++ {
		k := (j % devices) / clients
		if (j%devices)%clients != self {
			continue
		}
		due := start + int64(j)*int64(period)
		if wait := due - clk.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		begin := clk.now()
		ready := due
		if free > ready {
			ready = free
		}
		c.lags = append(c.lags, begin-ready)
		c.due = due
		for i := 0; i < batchReports; i++ {
			c.send(k)
		}
		c.due = 0
		free = clk.now()
		c.busyNs += free - begin
	}
}

// timedSink is the device-side boundary every workload has: it times
// each SendBatch (the device-observed ack), counts acknowledged reports
// into the phase's slices, and on a traced pass opens the upload's span.
type timedSink struct {
	next transport.BatchSender
	name string
	c    *client
}

func (s *timedSink) Name() string { return s.name }

func (s *timedSink) Send(r transport.Report) error {
	return s.SendBatch([]transport.Report{r})
}

func (s *timedSink) SendBatch(reports []transport.Report) error {
	sys := s.c.sys
	ph, tr := sys.ph, sys.tr
	if ph == nil {
		return s.next.SendBatch(reports) // warm-up and fill are not measured
	}
	var id uint32
	if tr != nil {
		id = tr.nextID.Add(1)
		s.c.upload = id
		for i := range reports {
			if d := deviceIndex(reports[i].Device); d >= 0 && d < len(tr.cur) {
				tr.cur[d].Store(id)
			}
		}
	}
	start := sys.clock.now()
	err := s.next.SendBatch(reports)
	end := sys.clock.now()
	if tr != nil {
		tr.record(lSink, id, start, end)
	}
	from := start
	if s.c.due != 0 {
		from = s.c.due
	}
	if err == nil {
		s.c.acks = append(s.c.acks, ackRec{endNs: end, durNs: end - from})
		ph.ack(len(reports))
	}
	return err
}

// readRec is one federated read: which view, when it completed, how
// long it took from its due time, whether it failed.
type readRec struct {
	rollup       bool
	endNs, durNs int64
	failed       bool
}

// readOnce performs one federated read — through the gateway's HTTP
// face where there is one, in-process otherwise — and discards the
// answer.
func (sys *system) readOnce(rollup bool) error {
	if sys.gwURL == "" {
		if rollup {
			_, err := sys.gw.Rollup()
			return err
		}
		_, err := sys.gw.Occupancy()
		return err
	}
	path := "/api/v1/occupancy"
	if rollup {
		path = "/api/v1/rollup"
	}
	resp, err := sys.readc.Get(sys.gwURL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return nil
}

// readLoop issues n reads alternating occupancy and rollup. With a
// period they are due on that fixed schedule from start and timed from
// the due time (the open loop's reader); without one they run back to
// back (the read phase after a closed loop).
func (sys *system) readLoop(start int64, period time.Duration, n int) []readRec {
	out := make([]readRec, 0, n)
	for i := 0; i < n; i++ {
		from := sys.clock.now()
		if period > 0 {
			from = start + int64(i)*int64(period)
			if wait := from - sys.clock.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
		}
		rollup := i%2 == 1
		err := sys.readOnce(rollup)
		end := sys.clock.now()
		out = append(out, readRec{rollup: rollup, endNs: end, durNs: end - from, failed: err != nil})
	}
	return out
}
