package svm

import (
	"fmt"
	"math"
)

// Scaler standardises features to zero mean and unit variance, fitted on
// the training set and applied to every query — the usual preprocessing
// for RBF SVMs, whose kernel width is isotropic.
type Scaler struct {
	// Mean and Std are per-feature statistics. Exported for
	// serialisation.
	Mean []float64
	Std  []float64
}

// FitScaler computes per-column statistics of X. Columns with zero
// variance get Std 1 so they pass through unchanged.
func FitScaler(X [][]float64) (*Scaler, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("svm: cannot fit scaler on empty data")
	}
	dim := len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return nil, fmt.Errorf("svm: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	s := &Scaler{Mean: make([]float64, dim), Std: make([]float64, dim)}
	n := float64(len(X))
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s, nil
}

// Transform returns the standardised copy of x.
func (s *Scaler) Transform(x []float64) []float64 {
	return s.transformInto(make([]float64, len(x)), x)
}

// transformInto standardises x into dst[:len(x)] and returns it.
func (s *Scaler) transformInto(dst, x []float64) []float64 {
	dst = dst[:len(x)]
	for j, v := range x {
		dst[j] = (v - s.Mean[j]) / s.Std[j]
	}
	return dst
}

// TransformAll standardises every row of X into a new matrix.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}
