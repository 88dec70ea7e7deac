package svm

import (
	"encoding/json"
	"math"
	"testing"
	"testing/quick"

	"occusim/internal/rng"
)

// predict classifies x on fresh scratch.
func predict(m *Model, x []float64) string { return m.PredictScratch(x, new(Scratch)) }

func TestKernels(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, -1}
	if got := (Linear{}).Compute(a, b); got != 1 {
		t.Errorf("linear = %v, want 1", got)
	}
	if got := (Linear{}).Compute(a, a); got != 5 {
		t.Errorf("linear self = %v, want 5", got)
	}
	rbf := RBF{Gamma: 0.5}
	if got := rbf.Compute(a, a); got != 1 {
		t.Errorf("rbf self = %v, want 1", got)
	}
	// ‖a−b‖² = 4 + 9 = 13 → exp(−6.5)
	if got := rbf.Compute(a, b); math.Abs(got-math.Exp(-6.5)) > 1e-12 {
		t.Errorf("rbf = %v", got)
	}
	if (Linear{}).Name() == "" || rbf.Name() == "" {
		t.Error("kernels must have names")
	}
}

func TestScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {3, 10}, {5, 10}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	if s.Mean[0] != 3 {
		t.Errorf("mean = %v", s.Mean[0])
	}
	// Constant column gets Std 1.
	if s.Std[1] != 1 {
		t.Errorf("constant column std = %v, want 1", s.Std[1])
	}
	out := s.TransformAll(X)
	var mean, variance float64
	for _, r := range out {
		mean += r[0]
	}
	mean /= 3
	for _, r := range out {
		variance += (r[0] - mean) * (r[0] - mean)
	}
	variance /= 3
	if math.Abs(mean) > 1e-12 || math.Abs(variance-1) > 1e-12 {
		t.Errorf("standardised mean=%v var=%v", mean, variance)
	}
}

func TestScalerErrors(t *testing.T) {
	if _, err := FitScaler(nil); err == nil {
		t.Error("empty data should error")
	}
	if _, err := FitScaler([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("ragged data should error")
	}
}

func TestTrainConfigValidate(t *testing.T) {
	if err := (TrainConfig{C: 1}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (TrainConfig{C: 0}).Validate(); err == nil {
		t.Error("C=0 should fail")
	}
}

// decision is a machine's decision value as a machine holding its own
// copy of each support vector computes it: the reference a model's
// shared kernel values must reproduce bit for bit.
func decision(m *binary, k Kernel, x []float64) float64 {
	s := m.Bias
	for i, sv := range m.SupportVectors {
		s += m.Coefficients[i] * k.Compute(sv, x)
	}
	return s
}

func TestBinaryLinearlySeparable(t *testing.T) {
	// Two well-separated clusters on the x axis.
	var X [][]float64
	var y []float64
	src := rng.New(1)
	for i := 0; i < 40; i++ {
		X = append(X, []float64{src.Normal(-3, 0.5), src.Normal(0, 0.5)})
		y = append(y, -1)
		X = append(X, []float64{src.Normal(3, 0.5), src.Normal(0, 0.5)})
		y = append(y, 1)
	}
	m, err := trainBinary(X, y, nil, TrainConfig{C: 1, Kernel: Linear{}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range X {
		pred := 1.0
		if decision(m, Linear{}, X[i]) < 0 {
			pred = -1
		}
		if pred == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.98 {
		t.Fatalf("training accuracy = %v on separable data", acc)
	}
	if len(m.SupportVectors) == 0 || len(m.SupportVectors) == len(X) {
		t.Fatalf("support vectors = %d of %d, expected sparse solution", len(m.SupportVectors), len(X))
	}
}

func TestBinaryXORNeedsRBF(t *testing.T) {
	// XOR pattern: not linearly separable, trivial for RBF.
	X := [][]float64{}
	var y []float64
	src := rng.New(2)
	for i := 0; i < 30; i++ {
		for _, q := range [][3]float64{{1, 1, 1}, {-1, -1, 1}, {1, -1, -1}, {-1, 1, -1}} {
			X = append(X, []float64{q[0] + src.Normal(0, 0.2), q[1] + src.Normal(0, 0.2)})
			y = append(y, q[2])
		}
	}
	rbf, err := trainBinary(X, y, nil, TrainConfig{C: 10, Kernel: RBF{Gamma: 1}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	acc := func(m *binary, k Kernel) float64 {
		c := 0
		for i := range X {
			pred := 1.0
			if decision(m, k, X[i]) < 0 {
				pred = -1
			}
			if pred == y[i] {
				c++
			}
		}
		return float64(c) / float64(len(X))
	}
	if a := acc(rbf, RBF{Gamma: 1}); a < 0.95 {
		t.Fatalf("RBF on XOR accuracy = %v", a)
	}
	lin, err := trainBinary(X, y, nil, TrainConfig{C: 10, Kernel: Linear{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a := acc(lin, Linear{}); a > 0.75 {
		t.Fatalf("linear kernel should fail on XOR, got accuracy %v", a)
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := trainBinary(nil, nil, nil, TrainConfig{C: 1}); err == nil {
		t.Error("empty set should fail")
	}
	if _, err := trainBinary([][]float64{{1}}, []float64{1, 2}, nil, TrainConfig{C: 1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := trainBinary([][]float64{{1}}, []float64{0.5}, nil, TrainConfig{C: 1}); err == nil {
		t.Error("non-±1 label should fail")
	}
	if _, err := trainBinary([][]float64{{1}}, []float64{1}, nil, TrainConfig{C: 0}); err == nil {
		t.Error("invalid config should fail")
	}
}

// threeBlobs builds a 3-class Gaussian blob dataset.
func threeBlobs(n int, seed uint64) ([][]float64, []string) {
	src := rng.New(seed)
	centers := map[string][2]float64{
		"a": {0, 0},
		"b": {6, 0},
		"c": {3, 5},
	}
	var X [][]float64
	var y []string
	for label, c := range centers {
		for i := 0; i < n; i++ {
			X = append(X, []float64{src.Normal(c[0], 0.8), src.Normal(c[1], 0.8)})
			y = append(y, label)
		}
	}
	return X, y
}

func TestMulticlassBlobs(t *testing.T) {
	X, y := threeBlobs(40, 4)
	m, err := Train(X, y, TrainConfig{C: 5, Kernel: RBF{Gamma: 0.5}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Classes(); len(got) != 3 || got[0] != "a" || got[2] != "c" {
		t.Fatalf("classes = %v", got)
	}
	correct := 0
	for i := range X {
		if predict(m, X[i]) == y[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(X)); acc < 0.95 {
		t.Fatalf("blob accuracy = %v", acc)
	}
	if m.NumSupportVectors() == 0 {
		t.Fatal("no support vectors")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, TrainConfig{C: 1}); err == nil {
		t.Error("empty training should fail")
	}
	X := [][]float64{{1}, {2}}
	if _, err := Train(X, []string{"a", "a"}, TrainConfig{C: 1}); err == nil {
		t.Error("single class should fail")
	}
	if _, err := Train(X, []string{"a"}, TrainConfig{C: 1}); err == nil {
		t.Error("mismatched labels should fail")
	}
	if _, err := Train(X, []string{"a", "b"}, TrainConfig{C: -1}); err == nil {
		t.Error("bad config should fail")
	}
}

func TestPredictDeterministic(t *testing.T) {
	X, y := threeBlobs(30, 6)
	m, err := Train(X, y, TrainConfig{C: 5, Kernel: RBF{Gamma: 0.5}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{3, 2}
	first := predict(m, probe)
	for i := 0; i < 10; i++ {
		if got := predict(m, probe); got != first {
			t.Fatal("prediction changed between calls")
		}
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	X, y := threeBlobs(30, 7)
	m1, err := Train(X, y, TrainConfig{C: 5, Kernel: RBF{Gamma: 0.5}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, TrainConfig{C: 5, Kernel: RBF{Gamma: 0.5}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	for i := 0; i < 50; i++ {
		p := []float64{src.Uniform(-2, 8), src.Uniform(-2, 7)}
		if predict(m1, p) != predict(m2, p) {
			t.Fatal("same-seed models disagree")
		}
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	X, y := threeBlobs(25, 8)
	m, err := Train(X, y, TrainConfig{C: 5, Kernel: RBF{Gamma: 0.5}, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	src := rng.New(12)
	for i := 0; i < 100; i++ {
		p := []float64{src.Uniform(-2, 8), src.Uniform(-2, 7)}
		if predict(m, p) != predict(&back, p) {
			t.Fatal("round-tripped model disagrees")
		}
	}
}

func TestModelJSONLinearKernel(t *testing.T) {
	X, y := threeBlobs(20, 13)
	m, err := Train(X, y, TrainConfig{C: 1, Kernel: Linear{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if predict(&back, X[0]) != predict(m, X[0]) {
		t.Fatal("linear model round trip disagrees")
	}
}

func TestModelJSONErrors(t *testing.T) {
	var m Model
	if err := json.Unmarshal([]byte(`{"kernel":{"type":"mystery"}}`), &m); err == nil {
		t.Error("unknown kernel should fail")
	}
	if err := json.Unmarshal([]byte(`{not json`), &m); err == nil {
		t.Error("bad json should fail")
	}
	if err := json.Unmarshal([]byte(`{"kernel":{"type":"rbf","gamma":1}}`), &m); err == nil {
		t.Error("missing scaler should fail")
	}
}

func TestGridSearch(t *testing.T) {
	X, y := threeBlobs(20, 14)
	points, best, err := GridSearch(X, y, []float64{0.5, 5}, []float64{0.1, 1}, 3, 15)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("grid points = %d, want 4", len(points))
	}
	if best.Accuracy < 0.9 {
		t.Fatalf("best CV accuracy = %v on easy blobs", best.Accuracy)
	}
	for _, p := range points {
		if p.Accuracy < 0 || p.Accuracy > 1 {
			t.Fatalf("accuracy %v out of range", p.Accuracy)
		}
	}
}

// TestGridSearchMatchesNaiveCV pins that the fold-cached grid search
// (one scaling + one norms vector per fold, shared across the grid) is
// result-identical to training each point from scratch with Train on
// the same fold splits.
func TestGridSearchMatchesNaiveCV(t *testing.T) {
	X, y := threeBlobs(18, 29)
	cs := []float64{0.5, 5}
	gammas := []float64{0.1, 1}
	const folds, seed = 3, 41
	points, _, err := GridSearch(X, y, cs, gammas, folds, seed)
	if err != nil {
		t.Fatal(err)
	}
	perm := permFromSeed(len(X), seed)
	for pi, p := range points {
		correct, total := 0, 0
		for f := 0; f < folds; f++ {
			var trX, teX [][]float64
			var trY, teY []string
			for i, idx := range perm {
				if i%folds == f {
					teX = append(teX, X[idx])
					teY = append(teY, y[idx])
				} else {
					trX = append(trX, X[idx])
					trY = append(trY, y[idx])
				}
			}
			m, err := Train(trX, trY, TrainConfig{C: p.C, Kernel: RBF{Gamma: p.Gamma}, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range teX {
				if predict(m, x) == teY[i] {
					correct++
				}
				total++
			}
		}
		naive := float64(correct) / float64(total)
		if p.Accuracy != naive {
			t.Fatalf("point %d (C=%v γ=%v): cached CV accuracy %v != naive %v",
				pi, p.C, p.Gamma, p.Accuracy, naive)
		}
	}
}

func TestGridSearchErrors(t *testing.T) {
	X, y := threeBlobs(5, 16)
	if _, _, err := GridSearch(X, y, []float64{1}, []float64{1}, 1, 1); err == nil {
		t.Error("folds<2 should fail")
	}
	if _, _, err := GridSearch(X[:2], y[:2], []float64{1}, []float64{1}, 5, 1); err == nil {
		t.Error("too few rows should fail")
	}
	if _, _, err := GridSearch(X, y, nil, []float64{1}, 2, 1); err == nil {
		t.Error("empty grid should fail")
	}
}

// Property: RBF kernel is bounded in (0, 1] and symmetric.
func TestQuickRBFProperties(t *testing.T) {
	k := RBF{Gamma: 0.7}
	f := func(a0, a1, b0, b1 float64) bool {
		for _, v := range []float64{a0, a1, b0, b1} {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		a := []float64{a0, a1}
		b := []float64{b0, b1}
		kab := k.Compute(a, b)
		kba := k.Compute(b, a)
		return kab > 0 && kab <= 1 && math.Abs(kab-kba) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: scaler transform is invertible (x ≈ mean + std·transform).
func TestQuickScalerInvertible(t *testing.T) {
	X := [][]float64{{1, 5}, {2, 9}, {4, -3}, {8, 0}}
	s, err := FitScaler(X)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x0, x1 float64) bool {
		if math.IsNaN(x0) || math.IsNaN(x1) || math.IsInf(x0, 0) || math.IsInf(x1, 0) {
			return true
		}
		tr := s.Transform([]float64{x0, x1})
		back0 := s.Mean[0] + s.Std[0]*tr[0]
		back1 := s.Mean[1] + s.Std[1]*tr[1]
		return math.Abs(back0-x0) <= 1e-6*math.Max(1, math.Abs(x0)) &&
			math.Abs(back1-x1) <= 1e-6*math.Max(1, math.Abs(x1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
