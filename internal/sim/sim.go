// Package sim provides the discrete-event simulation engine that drives
// the BLE link layer, the smartphone app state machine, the mobility
// models and the energy accounting.
//
// The engine is a classic event-heap design: events carry an absolute
// timestamp and a callback; RunUntil pops events in time order (ties broken by
// insertion order, so simulations are fully deterministic) and invokes the
// callbacks, which may schedule further events.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// Event is a scheduled callback. The callback receives the engine so it
// can schedule follow-up events.
type Event struct {
	At     time.Duration
	Action func(*Engine)

	seq   uint64 // insertion order, for deterministic ties
	index int    // heap index; -1 once popped or cancelled
}

// Canceled reports whether the event was cancelled or already executed.
func (e *Event) Canceled() bool { return e.index < 0 }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].At != h[j].At {
		return h[i].At < h[j].At
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// Flow is a continuous process coupled to the engine clock. The engine
// invokes it with contiguous, non-overlapping half-open intervals
// (from, to] that exactly cover simulated time, immediately before the
// clock advances past to. Flows let high-rate processes (such as BLE
// advertising trains) run in a tight loop between discrete events instead
// of scheduling one heap event per occurrence.
//
// A flow callback must not assume Engine.Now() has advanced to `to`, and
// must not schedule events inside the interval it is being flushed for.
type Flow func(from, to time.Duration)

// Engine is the simulation kernel. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now   time.Duration
	queue eventHeap
	seq   uint64

	flows   []Flow
	flushed time.Duration
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// Pending returns the number of queued events.
func (e *Engine) Pending() int { return len(e.queue) }

// ErrPastEvent is returned by ScheduleAt for events in the simulated past.
var ErrPastEvent = errors.New("sim: event scheduled before current time")

// ScheduleAt queues action to run at absolute simulated time at. It
// returns the event handle (usable with Cancel) or ErrPastEvent if at is
// before the current clock.
func (e *Engine) ScheduleAt(at time.Duration, action func(*Engine)) (*Event, error) {
	if at < e.now {
		return nil, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, e.now)
	}
	ev := &Event{At: at, Action: action, seq: e.seq}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev, nil
}

// Schedule queues action to run after the given delay from the current
// simulated time. Negative delays are treated as zero.
func (e *Engine) Schedule(delay time.Duration, action func(*Engine)) *Event {
	if delay < 0 {
		delay = 0
	}
	ev, err := e.ScheduleAt(e.now+delay, action)
	if err != nil {
		// Unreachable: now+delay >= now by construction.
		panic(err)
	}
	return ev
}

// Cancel removes a pending event from the queue. Cancelling a nil,
// already-run or already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -1
}

// AddFlow registers a continuous process. Flows run in registration
// order at every flush, keeping simulations deterministic.
func (e *Engine) AddFlow(f Flow) {
	if f == nil {
		panic("sim: AddFlow with nil flow")
	}
	e.flows = append(e.flows, f)
}

// flush advances the flows to `to`.
func (e *Engine) flush(to time.Duration) {
	if to <= e.flushed {
		return
	}
	from := e.flushed
	e.flushed = to
	for _, f := range e.flows {
		f(from, to)
	}
}

// RunUntil processes events with timestamps <= deadline, advancing the
// clock to exactly deadline on return (even if the queue drained earlier).
// It returns the number of events executed.
func (e *Engine) RunUntil(deadline time.Duration) int {
	executed := 0
	for len(e.queue) > 0 {
		next := e.queue[0]
		if next.At > deadline {
			break
		}
		ev := heap.Pop(&e.queue).(*Event)
		e.flush(ev.At)
		e.now = ev.At
		ev.Action(e)
		executed++
	}
	e.flush(deadline)
	if e.now < deadline {
		e.now = deadline
	}
	return executed
}

// Ticker invokes fn every period, starting at the engine's current time
// plus the period, until fn returns false or the engine drains/stops. It
// is the building block for scan cycles, reporting intervals and battery
// sampling.
func (e *Engine) Ticker(period time.Duration, fn func(now time.Duration) bool) {
	if period <= 0 {
		panic(fmt.Sprintf("sim: Ticker with non-positive period %v", period))
	}
	var tick func(*Engine)
	tick = func(en *Engine) {
		if !fn(en.now) {
			return
		}
		en.Schedule(period, tick)
	}
	e.Schedule(period, tick)
}
