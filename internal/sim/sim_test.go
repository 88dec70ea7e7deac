package sim

import (
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3*time.Second, func(*Engine) { order = append(order, 3) })
	e.Schedule(1*time.Second, func(*Engine) { order = append(order, 1) })
	e.Schedule(2*time.Second, func(*Engine) { order = append(order, 2) })
	if n := e.RunUntil(3 * time.Second); n != 3 {
		t.Fatalf("executed %d events", n)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestTiesBreakByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func(*Engine) { order = append(order, i) })
	}
	e.RunUntil(time.Second)
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie order = %v", order)
		}
	}
}

func TestScheduleFromCallback(t *testing.T) {
	e := NewEngine()
	hits := 0
	e.Schedule(time.Second, func(en *Engine) {
		hits++
		en.Schedule(time.Second, func(*Engine) { hits++ })
	})
	e.RunUntil(2 * time.Second)
	if hits != 2 {
		t.Fatalf("hits = %d", hits)
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestScheduleAtPastFails(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func(*Engine) {})
	e.RunUntil(time.Second)
	if _, err := e.ScheduleAt(500*time.Millisecond, func(*Engine) {}); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("err = %v, want ErrPastEvent", err)
	}
}

func TestNegativeDelayTreatedAsZero(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(-time.Second, func(*Engine) { ran = true })
	e.RunUntil(0)
	if !ran {
		t.Fatal("event with negative delay did not run")
	}
	if e.Now() != 0 {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	ran := false
	ev := e.Schedule(time.Second, func(*Engine) { ran = true })
	e.Cancel(ev)
	if !ev.Canceled() {
		t.Fatal("event not marked cancelled")
	}
	e.RunUntil(2 * time.Second)
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double-cancel and nil-cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelFromCallback(t *testing.T) {
	e := NewEngine()
	ran := false
	var victim *Event
	e.Schedule(time.Second, func(en *Engine) { en.Cancel(victim) })
	victim = e.Schedule(2*time.Second, func(*Engine) { ran = true })
	e.RunUntil(2 * time.Second)
	if ran {
		t.Fatal("victim ran despite cancellation")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		e.Schedule(d, func(en *Engine) { times = append(times, en.Now()) })
	}
	n := e.RunUntil(3 * time.Second)
	if n != 3 {
		t.Fatalf("executed %d, want 3", n)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if e.Now() != 3*time.Second {
		t.Fatalf("clock = %v", e.Now())
	}
	n = e.RunUntil(10 * time.Second)
	if n != 2 {
		t.Fatalf("executed %d, want 2", n)
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("clock advanced to %v, want 10s", e.Now())
	}
}

func TestRunUntilAdvancesEmptyQueue(t *testing.T) {
	e := NewEngine()
	e.RunUntil(7 * time.Second)
	if e.Now() != 7*time.Second {
		t.Fatalf("clock = %v", e.Now())
	}
}

func TestTickerStopsWhenFnReturnsFalse(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Ticker(time.Second, func(time.Duration) bool {
		ticks++
		return ticks < 4
	})
	e.RunUntil(10 * time.Second)
	if ticks != 4 {
		t.Fatalf("ticks = %d, want 4", ticks)
	}
}

func TestTickerPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Ticker(0, func(time.Duration) bool { return false })
}

// Property: for any set of delays, events execute in nondecreasing time
// order.
func TestQuickTimeOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		var times []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Millisecond, func(en *Engine) {
				times = append(times, en.Now())
			})
		}
		e.RunUntil(time.Hour)
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: clock never runs backwards across nested scheduling.
func TestQuickClockMonotone(t *testing.T) {
	f := func(seed uint8) bool {
		e := NewEngine()
		last := time.Duration(-1)
		ok := true
		depth := 0
		var recurse func(en *Engine)
		recurse = func(en *Engine) {
			if en.Now() < last {
				ok = false
			}
			last = en.Now()
			if depth < int(seed%16) {
				depth++
				en.Schedule(time.Duration(seed)*time.Millisecond, recurse)
			}
		}
		e.Schedule(time.Millisecond, recurse)
		e.RunUntil(time.Hour)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
