package scenario

import (
	"fmt"
	"sync"
	"time"

	"occusim/internal/overload"
	"occusim/internal/stats"
	"occusim/internal/transport"
)

// Sink is where a crowd's exchanges go: an uplink that takes a batch
// whole (a gateway's in-process door, a transport.HTTPUplink).
type Sink interface {
	transport.Uplink
	transport.BatchSender
}

// Driver is how a crowd's lanes are sent. The zero Driver sends every
// batch whole and unpaced, stamps epoch 1 and fails fast on any error
// but a shed.
type Driver struct {
	// Epoch is the device epoch stamped on the reports (default 1).
	Epoch uint64
	// Gap paces a lane: it waits this long per report before each batch.
	Gap time.Duration
	// Faults is the run's declared fault budget; see Budget.
	Faults Budget
	// Coalesce, when set, gives every lane a transport.BatchingUplink of
	// its own in front of the exchange point: the lane's batches are
	// handed to it report by report and it decides what an exchange
	// carries, as a handset's uplink does.
	Coalesce *transport.BatchConfig
}

// Budget is how far a lane retransmits an exchange that failed for a
// reason other than a shed: up to Attempts exchanges, Gap apart. Drills
// that inject faults or kill processes declare one; the zero Budget
// returns the first such error, because a fleet nobody is breaking has
// no business failing.
type Budget struct {
	Attempts int
	Gap      time.Duration
}

// A shed is always retransmitted, after the refusal's own Retry-After
// hint capped at maxShedWait (an in-process fleet drains in
// microseconds; the hint is sized for radios): a fleet that has not
// admitted a batch in maxShedAttempts tries is wedged, not overloaded.
const (
	maxShedWait     = 5 * time.Millisecond
	maxShedAttempts = 500
)

// next is the one retransmit rule: whether a batch whose attempt-th
// exchange (sheds counted) just failed with err is sent again — the
// identical stamped reports — and after how long.
func (b Budget) next(attempt int, err error) (wait time.Duration, again bool) {
	if hint, shed := overload.IsOverload(err); shed {
		return min(hint, maxShedWait), attempt < maxShedAttempts
	}
	return b.Gap, attempt < b.Attempts
}

// Driven is what one Drive measured.
type Driven struct {
	Elapsed time.Duration
	// Unique counts the distinct reports offered, Sent the deliveries
	// asked for (Repeat duplicates included, retransmissions not).
	Unique, Sent int
	// Exchanges counts every exchange with a sink, failed ones and
	// retransmissions included; AckedExchanges those that succeeded and
	// Acked the reports they carried.
	Exchanges, AckedExchanges, Acked int

	mu        sync.Mutex
	latencies []float64 // ms per exchange
}

// LatencyMs returns the p-th percentile exchange latency.
func (d *Driven) LatencyMs(p float64) float64 { return stats.Percentile(d.latencies, p) }

// funnel is the exchange point in front of one sink: every exchange of
// every lane is timed and counted here, and retransmitted by the rule.
type funnel struct {
	next   Sink
	faults Budget
	out    *Driven
}

func (f *funnel) Name() string { return "driven(" + f.next.Name() + ")" }

func (f *funnel) Send(r transport.Report) error { return f.SendBatch([]transport.Report{r}) }

func (f *funnel) SendBatch(reports []transport.Report) error {
	for attempt := 1; ; attempt++ {
		start := time.Now()
		err := f.next.SendBatch(reports)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		f.out.mu.Lock()
		f.out.latencies = append(f.out.latencies, ms)
		f.out.Exchanges++
		if err == nil {
			f.out.AckedExchanges++
			f.out.Acked += len(reports)
		}
		f.out.mu.Unlock()
		if err == nil {
			return nil
		}
		wait, again := f.faults.next(attempt, err)
		if !again {
			if attempt > 1 {
				err = fmt.Errorf("after %d attempts: %w", attempt, err)
			}
			return err
		}
		time.Sleep(wait)
	}
}

// Drive sends lanes into sinks (Batch.Gateway indexes them) and returns
// what it measured once every lane is through or has failed; the lowest
// lane's error wins. Each lane is its own goroutine, never a GOMAXPROCS-sized pool:
// lanes are independent handsets whose blocking I/O must overlap, a
// lane inside a WAL fsync or a socket read must not hold up the rest,
// and it is the overlap that lets a durable shard commit concurrent
// batches under one fsync. Reports are stamped up front, in lane order,
// so a retransmission carries the exact bytes of the original — the
// shards' dedup key; a device's lanes therefore belong to one Drive.
func (d Driver) Drive(lanes []Lane, sinks ...Sink) (*Driven, error) {
	out := &Driven{}
	seq := transport.NewSequencer(max(d.Epoch, 1))
	for li := range lanes {
		for _, bt := range lanes[li].Batches {
			if bt.Gateway < 0 || bt.Gateway >= len(sinks) {
				return out, fmt.Errorf("lane %d: batch targets gateway %d of %d", li, bt.Gateway, len(sinks))
			}
			for ri := range bt.Reports {
				seq.Stamp(&bt.Reports[ri])
			}
			out.Unique += len(bt.Reports)
			out.Sent += max(bt.Repeat, 1) * len(bt.Reports)
		}
	}

	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for li := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[li] = d.lane(lanes[li], sinks, out)
		}()
	}
	wg.Wait()
	out.Elapsed = time.Since(start)
	for li, err := range errs {
		if err != nil {
			return out, fmt.Errorf("lane %d: %w", li, err)
		}
	}
	return out, nil
}

// lane sends one lane's batches in order, each into the funnel of the
// gateway it targets — through the lane's own coalescing uplink, report
// by report, where the driver has one.
func (d Driver) lane(lane Lane, sinks []Sink, out *Driven) error {
	funnels := make([]*funnel, len(sinks))
	fronts := make([]*transport.BatchingUplink, len(sinks))
	for i, sink := range sinks {
		funnels[i] = &funnel{next: sink, faults: d.Faults, out: out}
		if d.Coalesce != nil {
			var err error
			if fronts[i], err = transport.NewBatchingUplink(funnels[i], *d.Coalesce); err != nil {
				return err
			}
		}
	}
	for _, bt := range lane.Batches {
		for k := 0; k < max(bt.Repeat, 1); k++ {
			time.Sleep(d.Gap * time.Duration(len(bt.Reports)))
			if fronts[bt.Gateway] == nil {
				if err := funnels[bt.Gateway].SendBatch(bt.Reports); err != nil {
					return err
				}
				continue
			}
			for _, r := range bt.Reports {
				if err := fronts[bt.Gateway].Send(r); err != nil {
					return err
				}
			}
		}
	}
	for _, front := range fronts {
		if front != nil {
			if err := front.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}
