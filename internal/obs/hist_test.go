package obs

import (
	"math"
	"testing"
)

// TestHistogramEmpty: zero observations must quantile to zero and
// snapshot to all-zero state — an unused stage renders as silence, not
// garbage.
func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("empty histogram snapshot = %+v", s)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := s.Quantile(q); v != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, v)
		}
	}
}

// TestHistogramSingleBucket: identical observations land in one bucket
// and every quantile answers that bucket's bound.
func TestHistogramSingleBucket(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1000) // bucket of 1000 spans [512, 1023]
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 100_000 {
		t.Fatalf("count/sum = %d/%d, want 100/100000", s.Count, s.Sum)
	}
	occupied := 0
	for _, n := range s.Buckets {
		if n > 0 {
			occupied++
		}
	}
	if occupied != 1 {
		t.Fatalf("%d buckets occupied, want 1", occupied)
	}
	want := BucketBound(bucketOf(1000))
	if want < 1000 || want >= 2000 {
		t.Fatalf("bucket bound %d does not cover 1000 within 2x", want)
	}
	for _, q := range []float64{0.01, 0.5, 0.99, 1} {
		if v := s.Quantile(q); v != want {
			t.Fatalf("Quantile(%v) = %d, want %d", q, v, want)
		}
	}
}

// TestHistogramSaturatingMax: values beyond the last power-of-two
// bound — including MaxInt64 — saturate into the final bucket instead
// of indexing out of range, and its reported bound is MaxInt64.
func TestHistogramSaturatingMax(t *testing.T) {
	var h Histogram
	huge := []int64{1 << 39, 1 << 45, 1 << 62, math.MaxInt64}
	for _, v := range huge {
		h.Observe(v)
	}
	s := h.Snapshot()
	if got := s.Buckets[HistBuckets-1]; got != uint64(len(huge)) {
		t.Fatalf("max bucket holds %d, want %d", got, len(huge))
	}
	if v := s.Quantile(0.99); v != math.MaxInt64 {
		t.Fatalf("saturated Quantile(0.99) = %d, want MaxInt64", v)
	}
	// Negative observations clamp to the zero bucket, never underflow.
	h.Observe(-5)
	if got := h.Snapshot().Buckets[0]; got != 1 {
		t.Fatalf("negative observation landed in bucket 0 %d times, want 1", got)
	}
}

// TestHistogramQuantileLadder: a spread of observations must produce a
// nondecreasing quantile ladder whose answers bound the true values
// within the 2x bucket width.
func TestHistogramQuantileLadder(t *testing.T) {
	var h Histogram
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	p50, p90, p99 := s.Quantile(0.50), s.Quantile(0.90), s.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%d p90=%d p99=%d", p50, p90, p99)
	}
	if p50 < 500 || p50 >= 1024 {
		t.Fatalf("p50 = %d, want within 2x of 500", p50)
	}
	if p99 < 990 || p99 >= 2048 {
		t.Fatalf("p99 = %d, want within 2x of 990", p99)
	}
}

func TestBucketBoundEdges(t *testing.T) {
	if BucketBound(-1) != 0 {
		t.Fatal("negative index must bound at 0")
	}
	if BucketBound(0) != 0 {
		t.Fatalf("bucket 0 bound = %d, want 0", BucketBound(0))
	}
	if BucketBound(1) != 1 {
		t.Fatalf("bucket 1 bound = %d, want 1", BucketBound(1))
	}
	if BucketBound(HistBuckets-1) != math.MaxInt64 {
		t.Fatal("final bucket must bound at MaxInt64")
	}
	// Every bucket's bound maps back into that bucket.
	for i := 1; i < HistBuckets; i++ {
		if got := bucketOf(BucketBound(i)); got != i {
			t.Fatalf("bucketOf(BucketBound(%d)) = %d", i, got)
		}
	}
}
