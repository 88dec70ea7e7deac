package classify

import (
	"testing"

	"occusim/internal/rng"
	"occusim/internal/svm"
	"occusim/internal/wire"
)

// BenchmarkPredictSpan measures one report's classification on a shard:
// a model shaped like the crowd's (the paper house's 6 rooms and 6
// beacons, 8 fingerprints a room, TrainCrowdModel's C and γ) predicting
// from 6-beacon spans on warm scratch.
func BenchmarkPredictSpan(b *testing.B) {
	h, train := syntheticDataset(8, 0.8, 9)
	scene, err := TrainSceneSVM(train, svm.TrainConfig{C: 10, Kernel: svm.RBF{Gamma: 0.03}, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(10)
	spans := make([][]wire.Beacon, 64)
	for i := range spans {
		for _, bc := range h.Beacons {
			spans[i] = append(spans[i], wire.Beacon{ID: bc.ID, Distance: 0.5 + 12*src.Float64()})
		}
	}
	var sc Scratch
	scene.PredictSpan(spans[0], &sc) // grow the scratch to the model
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scene.PredictSpan(spans[i%len(spans)], &sc)
	}
}
