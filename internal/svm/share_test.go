package svm

import (
	"encoding/json"
	"math"
	"testing"

	"occusim/internal/fingerprint"
	"occusim/internal/rng"
)

// crowdRows builds rows shaped like the crowd model's training set: 6
// rooms with one beacon each, a row hearing its own room's beacon near,
// a neighbour's or two farther off, and MissingDistance for the rest.
func crowdRows(perRoom int, seed uint64) ([][]float64, []string) {
	rooms := []string{"bathroom", "bedroom", "kitchen", "living", "study", "toilet"}
	src := rng.New(seed)
	var X [][]float64
	var y []string
	for c, room := range rooms {
		for i := 0; i < perRoom; i++ {
			X = append(X, crowdRow(src, c, len(rooms)))
			y = append(y, room)
		}
	}
	return X, y
}

func crowdRow(src *rng.Source, room, width int) []float64 {
	row := make([]float64, width)
	for j := range row {
		row[j] = fingerprint.MissingDistance
	}
	row[room] = 0.5 + 2.5*src.Float64()
	for k := src.Intn(3); k > 0; k-- {
		row[src.Intn(width)] = 4 + 8*src.Float64()
	}
	return row
}

// TestPredictSharesKernelsBitForBit is the contract of the shared
// support-vector table: for every row and every machine, the decision
// value computed from the model's one kernel value per distinct support
// vector equals, bit for bit, the value of a loop over the machine's own
// copies as serialised — so every vote, tie-break and prediction is the
// one a model without the table gives.
func TestPredictSharesKernelsBitForBit(t *testing.T) {
	blobX, blobY := threeBlobs(40, 21)
	crowdX, crowdY := crowdRows(40, 22)
	for _, tc := range []struct {
		name  string
		X     [][]float64
		y     []string
		cfg   TrainConfig
		crowd bool
	}{
		{"blobs/rbf", blobX, blobY, TrainConfig{C: 5, Kernel: RBF{Gamma: 0.5}, Seed: 1}, false},
		{"blobs/linear", blobX, blobY, TrainConfig{C: 1, Kernel: Linear{}, Seed: 2}, false},
		{"crowd/rbf", crowdX, crowdY, TrainConfig{C: 10, Kernel: RBF{Gamma: 1.0 / 7}, Seed: 3}, true},
		{"crowd/linear", crowdX, crowdY, TrainConfig{C: 1, Kernel: Linear{}, Seed: 4}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trained, err := Train(tc.X, tc.y, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(trained)
			if err != nil {
				t.Fatal(err)
			}
			var ref modelJSON // every machine with its own copies
			if err := json.Unmarshal(blob, &ref); err != nil {
				t.Fatal(err)
			}
			back := new(Model)
			if err := json.Unmarshal(blob, back); err != nil {
				t.Fatal(err)
			}
			if again, err := json.Marshal(back); err != nil || string(again) != string(blob) {
				t.Fatalf("a decoded model marshals to other bytes (err %v)", err)
			}
			if tc.crowd && len(trained.svs) >= trained.NumSupportVectors() {
				t.Fatalf("%d distinct of %d support vectors: the crowd model shares none, the test proves nothing", len(trained.svs), trained.NumSupportVectors())
			}
			t.Logf("%d distinct of %d support vectors", len(trained.svs), trained.NumSupportVectors())

			src := rng.New(23)
			width := len(tc.X[0])
			var sc Scratch
			votes := make([]int, len(ref.Classes))
			for n := 0; n < 10000; n++ {
				var x []float64
				switch {
				case n < len(tc.X):
					x = tc.X[n]
				case tc.crowd:
					x = crowdRow(src, src.Intn(width), width)
				default:
					x = []float64{src.Uniform(-3, 9), src.Uniform(-3, 8)}
				}
				clear(votes)
				for _, m := range []*Model{trained, back} {
					xs, k, _ := sc.fit(len(x), m)
					xs = m.scaler.transformInto(xs, x)
					m.kernels(k, xs)
					for i, pj := range ref.Pairs {
						want := decision(pj.Binary, m.kernel, xs)
						if got := m.pairs[i].decision(k); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("row %d, pair (%d,%d): shared kernels give %v, the machine's own copies %v", n, pj.A, pj.B, got, want)
						}
						if m == trained {
							if want >= 0 {
								votes[pj.A]++
							} else {
								votes[pj.B]++
							}
						}
					}
				}
				best := 0
				for i := range votes {
					if votes[i] > votes[best] {
						best = i
					}
				}
				if got, want := predict(trained, x), ref.Classes[best]; got != want || predict(back, x) != want {
					t.Fatalf("row %d: predicted %q (decoded %q), the per-machine vote gives %q", n, got, predict(back, x), want)
				}
			}
		})
	}
}

// TestMalformedModelsRefused pins what decoding refuses: each model
// below would index out of range or divide nonsense at its first
// prediction.
func TestMalformedModelsRefused(t *testing.T) {
	X, y := threeBlobs(10, 24)
	m, err := Train(X, y, TrainConfig{C: 5, Kernel: RBF{Gamma: 0.5}, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*modelJSON)
	}{
		{"one class", func(mj *modelJSON) { mj.Classes = mj.Classes[:1] }},
		{"class out of range", func(mj *modelJSON) { mj.Pairs[0].B = 7 }},
		{"pair reversed", func(mj *modelJSON) { mj.Pairs[0].A, mj.Pairs[0].B = mj.Pairs[0].B, mj.Pairs[0].A }},
		{"negative class", func(mj *modelJSON) { mj.Pairs[0].A = -1 }},
		{"missing machine", func(mj *modelJSON) { mj.Pairs[1].Binary = nil }},
		{"coefficients short", func(mj *modelJSON) { mj.Pairs[0].Binary.Coefficients = mj.Pairs[0].Binary.Coefficients[1:] }},
		{"support vector narrow", func(mj *modelJSON) { mj.Pairs[2].Binary.SupportVectors[0] = []float64{1} }},
		{"std narrow", func(mj *modelJSON) { mj.Scaler.Std = mj.Scaler.Std[:1] }},
		{"zero gamma", func(mj *modelJSON) { mj.Kernel.Gamma = 0 }},
		{"negative gamma", func(mj *modelJSON) { mj.Kernel.Gamma = -1 }},
	} {
		var mj modelJSON
		if err := json.Unmarshal(blob, &mj); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&mj)
		bad, err := json.Marshal(mj)
		if err != nil {
			t.Fatal(err)
		}
		var got Model
		if err := json.Unmarshal(bad, &got); err == nil {
			t.Errorf("%s: decoded without an error", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
	if _, err := Train(X, y, TrainConfig{C: 5, Kernel: RBF{Gamma: math.Inf(1)}}); err == nil {
		t.Error("Train took an infinite gamma, which no decoded model may carry")
	}
}
