package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"syscall"
)

// --- estimators ---------------------------------------------------------

// quartiles returns the three cut points of v exactly as Python's
// statistics.quantiles(v, n=4) does (the default exclusive method), so
// the spreads this program prints are the spreads the driver computes.
// It needs at least two values.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// medianIQR summarises per-slice estimates: the reported value is the
// median, the spread the distance between the quartiles.
func medianIQR(v []float64) (med, iqr float64) {
	switch len(v) {
	case 0:
		return 0, 0
	case 1:
		return v[0], 0
	}
	q1, med, q3 := quartiles(v)
	return med, q3 - q1
}

// percentile is the nearest-rank p-quantile (p in (0,1]) of sorted,
// with the number of samples strictly beyond it — a percentile is only
// worth reading with at least ten.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// --- process counters ---------------------------------------------------

// counters is one reading of what the process has consumed so far.
type counters struct {
	wallNs  int64 // on the pass's clock
	cpuNs   int64 // user+sys, getrusage
	mallocs uint64
	io      ioCounts
	acked   int64 // reports acknowledged
}

// ioCounts are /proc/self/io's running totals: bytes handed to
// write-like syscalls, and the read- and write-like syscalls made.
type ioCounts struct {
	wchar, syscr, syscw int64
}

// procIO reads /proc/self/io through one open handle and a fixed
// buffer, so sampling allocates nothing inside the timed phase.
type procIO struct {
	f   *os.File
	buf [512]byte
}

func openProcIO() (*procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return nil, fmt.Errorf("io accounting needs /proc/self/io: %w", err)
	}
	return &procIO{f: f}, nil
}

func (p *procIO) read() (ioCounts, error) {
	n, err := p.f.ReadAt(p.buf[:], 0)
	if n == 0 && err != nil {
		return ioCounts{}, fmt.Errorf("read /proc/self/io: %w", err)
	}
	field := func(key string) (int64, error) {
		i := bytes.Index(p.buf[:n], []byte(key))
		if i < 0 {
			return 0, fmt.Errorf("/proc/self/io has no %q line", key)
		}
		rest := p.buf[i+len(key) : n]
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			rest = rest[:j]
		}
		return strconv.ParseInt(string(rest), 10, 64)
	}
	var c ioCounts
	if c.wchar, err = field("wchar: "); err != nil {
		return c, err
	}
	if c.syscr, err = field("syscr: "); err != nil {
		return c, err
	}
	c.syscw, err = field("syscw: ")
	return c, err
}

func cpuNanos() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// --- the timed phase's recorder ----------------------------------------

// phase cuts one timed phase into equal report-count slices. Whichever
// client's acknowledgement crosses a slice boundary reads the process
// counters there; the start and end readings are the runner's.
type phase struct {
	clock
	sliceSize int64
	acked     atomic.Int64
	marks     [slices + 1]counters
	io        *procIO
	// err keeps the first counter-read failure of a boundary crossing.
	err atomic.Pointer[error]
}

func newPhase(c clock, total int64, io *procIO) *phase {
	size := total / slices
	if size < 1 {
		size = 1
	}
	return &phase{clock: c, sliceSize: size, io: io}
}

func (p *phase) read(k int) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, err := cpuNanos()
	if err != nil {
		return err
	}
	io, err := p.io.read()
	if err != nil {
		return err
	}
	p.marks[k] = counters{wallNs: p.now(), cpuNs: cpu, mallocs: ms.Mallocs, io: io, acked: p.acked.Load()}
	return nil
}

func (p *phase) start() error { return p.read(0) }

func (p *phase) finish() error {
	if e := p.err.Load(); e != nil {
		return *e
	}
	return p.read(slices)
}

// ack counts n more acknowledged reports and reads the counters for
// every inner boundary the count just crossed.
func (p *phase) ack(n int) {
	after := p.acked.Add(int64(n))
	lo, hi := (after-int64(n))/p.sliceSize, after/p.sliceSize
	for k := lo + 1; k <= hi && k < slices; k++ {
		if err := p.read(int(k)); err != nil {
			p.err.CompareAndSwap(nil, &err)
		}
	}
}

// ackRec is one acknowledged (or failed) batch: when it completed and
// how long the device waited — from the send in a closed loop, from the
// due time in an open one.
type ackRec struct {
	endNs, durNs int64
}

// sliceStats are the six per-slice estimates of one run.
type sliceStats struct {
	reportsPerS, cpuUs, ackP50Ms, ackP99Ms []float64
	allocs, ioBytes, syscalls              []float64
	ackN                                   int
}

// sliceEstimates turns the boundary readings and the merged ack log
// into per-slice values. A boundary that was never crossed (a run cut
// short by failures) ends the list early.
func (p *phase) sliceEstimates(acks []ackRec) sliceStats {
	sort.Slice(acks, func(i, j int) bool { return acks[i].endNs < acks[j].endNs })
	var st sliceStats
	st.ackN = len(acks)
	next := 0
	for k := 0; k < slices; k++ {
		a, b := p.marks[k], p.marks[k+1]
		n := float64(b.acked - a.acked)
		wall := float64(b.wallNs - a.wallNs)
		if n <= 0 || wall <= 0 {
			continue
		}
		st.reportsPerS = append(st.reportsPerS, n/(wall/1e9))
		st.cpuUs = append(st.cpuUs, float64(b.cpuNs-a.cpuNs)/1e3/n)
		st.allocs = append(st.allocs, float64(b.mallocs-a.mallocs)/n)
		st.ioBytes = append(st.ioBytes, float64(b.io.wchar-a.io.wchar)/n)
		st.syscalls = append(st.syscalls, float64(b.io.syscr+b.io.syscw-a.io.syscr-a.io.syscw)/n)
		var durs []float64
		for next < len(acks) && (acks[next].endNs <= b.wallNs || k == slices-1) {
			durs = append(durs, float64(acks[next].durNs)/1e6)
			next++
		}
		if len(durs) > 0 {
			sort.Float64s(durs)
			p50, _ := percentile(durs, 0.50)
			p99, _ := percentile(durs, 0.99)
			st.ackP50Ms = append(st.ackP50Ms, p50)
			st.ackP99Ms = append(st.ackP99Ms, p99)
		}
	}
	return st
}
