package knn

import (
	"testing"
	"testing/quick"
)

func clusters() ([][]float64, []string) {
	var X [][]float64
	var y []string
	for i := 0; i < 10; i++ {
		X = append(X, []float64{0 + float64(i)*0.01, 0})
		y = append(y, "a")
		X = append(X, []float64{5 + float64(i)*0.01, 5})
		y = append(y, "b")
	}
	return X, y
}

func TestTrainErrors(t *testing.T) {
	X, y := clusters()
	if _, err := Train(nil, nil, 1); err == nil {
		t.Error("empty should fail")
	}
	if _, err := Train(X, y[:1], 1); err == nil {
		t.Error("mismatched labels should fail")
	}
	if _, err := Train(X, y, 0); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Train(X, y, len(X)+1); err == nil {
		t.Error("k>n should fail")
	}
	if _, err := Train([][]float64{{1, 2}, {3}}, []string{"a", "b"}, 1); err == nil {
		t.Error("ragged rows should fail")
	}
}

func TestPredictClusters(t *testing.T) {
	X, y := clusters()
	c, err := Train(X, y, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.k != 3 {
		t.Fatalf("k = %d", c.k)
	}
	if got := c.Predict([]float64{0.1, 0.1}); got != "a" {
		t.Errorf("near cluster a predicted %q", got)
	}
	if got := c.Predict([]float64{5.1, 4.9}); got != "b" {
		t.Errorf("near cluster b predicted %q", got)
	}
	for i := range X {
		if c.Predict(X[i]) != y[i] {
			t.Fatalf("training point %d misclassified", i)
		}
	}
}

func TestTieBreaksTowardNearest(t *testing.T) {
	// k=2 with one neighbour from each class: the closer one must win.
	X := [][]float64{{0}, {1}}
	y := []string{"near", "far"}
	c, err := Train(X, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Predict([]float64{0.1}); got != "near" {
		t.Fatalf("tie broke to %q, want near", got)
	}
	if got := c.Predict([]float64{0.9}); got != "far" {
		t.Fatalf("tie broke to %q, want far", got)
	}
}

func TestTrainCopiesData(t *testing.T) {
	X := [][]float64{{0}, {10}}
	y := []string{"a", "b"}
	c, _ := Train(X, y, 1)
	X[0][0] = 100 // mutate the caller's slice
	if got := c.Predict([]float64{0.5}); got != "a" {
		t.Fatal("classifier shares memory with caller")
	}
}

// Property: k=1 prediction always equals the label of the exact nearest
// training point when queried at a training point.
func TestQuickExactMatch(t *testing.T) {
	X, y := clusters()
	c, err := Train(X, y, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := func(i uint8) bool {
		idx := int(i) % len(X)
		return c.Predict(X[idx]) == y[idx]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
