package svm

import "testing"

// BenchmarkTrainRBF measures SMO training on a 3-class blob problem of
// the size the BMS trains on (hundreds of fingerprints).
func BenchmarkTrainRBF(b *testing.B) {
	X, y := threeBlobs(80, 1) // 240 rows
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Train(X, y, TrainConfig{C: 10, Kernel: RBF{Gamma: 0.3}, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if m.NumSupportVectors() == 0 {
			b.Fatal("degenerate model")
		}
	}
}

// BenchmarkPredict measures single-sample inference, the per-report cost
// on the BMS ingest path.
func BenchmarkPredict(b *testing.B) {
	X, y := threeBlobs(80, 2)
	m, err := Train(X, y, TrainConfig{C: 10, Kernel: RBF{Gamma: 0.3}, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	probe := []float64{3, 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = predict(m, probe)
	}
}

// BenchmarkGridSearch measures the model-selection pass.
func BenchmarkGridSearch(b *testing.B) {
	X, y := threeBlobs(30, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GridSearch(X, y, []float64{1, 10}, []float64{0.1, 0.3}, 3, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
