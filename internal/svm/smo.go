package svm

import (
	"fmt"
	"math"

	"occusim/internal/rng"
)

// TrainConfig parameterises the SMO solver.
type TrainConfig struct {
	// C is the soft-margin penalty; larger values fit the training data
	// harder. Must be positive.
	C float64
	// Kernel defaults to RBF with gamma 1/dim when nil.
	Kernel Kernel
	// Seed drives the SMO second-index heuristic.
	Seed uint64
}

const (
	// tol is the KKT violation tolerance.
	tol = 1e-3
	// maxPasses is the number of consecutive full sweeps without an
	// alpha update before the solver declares convergence.
	maxPasses = 5
	// maxSweeps caps the total number of sweeps as a safety net.
	maxSweeps = 1000
)

func (c TrainConfig) withDefaults(dim int) TrainConfig {
	if c.Kernel == nil {
		c.Kernel = RBF{Gamma: 1 / float64(max(dim, 1))}
	}
	return c
}

// Validate reports the first invalid field, or nil.
func (c TrainConfig) Validate() error {
	if c.C <= 0 {
		return fmt.Errorf("svm: C must be positive, got %v", c.C)
	}
	return checkKernel(c.Kernel)
}

// checkKernel refuses an RBF kernel whose γ is not a positive finite
// number. Train and a model's decoding share it, so every model Train
// makes decodes again.
func checkKernel(k Kernel) error {
	if rbf, ok := k.(RBF); ok && !(rbf.Gamma > 0 && !math.IsInf(rbf.Gamma, 1)) {
		return fmt.Errorf("svm: RBF gamma must be positive and finite, got %v", rbf.Gamma)
	}
	return nil
}

// binary is a trained two-class machine: f(x) = Σ αᵢyᵢK(xᵢ,x) + b, with
// only the support vectors (αᵢ > 0) retained. It is SMO's output and the
// serialised form of one machine; a Model predicts from its pairs.
type binary struct {
	SupportVectors [][]float64 `json:"supportVectors"`
	Coefficients   []float64   `json:"coefficients"` // αᵢ·yᵢ
	Bias           float64     `json:"bias"`
}

// trainBinary runs simplified SMO (Platt's algorithm with the randomised
// second-choice heuristic) on X with labels y ∈ {−1, +1}. norms
// optionally carries the rows' squared norms for the RBF kernel (nil
// recomputes).
func trainBinary(X [][]float64, y []float64, norms []float64, cfg TrainConfig) (*binary, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(X) != len(y) {
		return nil, fmt.Errorf("svm: %d rows vs %d labels", len(X), len(y))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(len(X[0]))
	for _, v := range y {
		if v != 1 && v != -1 {
			return nil, fmt.Errorf("svm: binary label %v must be ±1", v)
		}
	}

	n := len(X)
	km := newKernelMatrix(X, cfg.Kernel, norms)

	alpha := make([]float64, n)
	b := 0.0
	src := rng.New(cfg.Seed)

	// fval[i] caches Σ_k α_k·y_k·K(k,i) (the decision value without the
	// bias). Maintaining it incrementally turns the KKT sweep's per-index
	// check into O(1) instead of a fresh O(n) kernel sum.
	fval := make([]float64, n)

	passes := 0
	for sweep := 0; passes < maxPasses && sweep < maxSweeps; sweep++ {
		changed := 0
		for i := 0; i < n; i++ {
			Ei := fval[i] + b - y[i]
			if !((y[i]*Ei < -tol && alpha[i] < cfg.C) || (y[i]*Ei > tol && alpha[i] > 0)) {
				continue
			}
			j := src.Intn(n - 1)
			if j >= i {
				j++
			}
			Ej := fval[j] + b - y[j]

			aiOld, ajOld := alpha[i], alpha[j]
			var lo, hi float64
			if y[i] != y[j] {
				lo = maxf(0, ajOld-aiOld)
				hi = minf(cfg.C, cfg.C+ajOld-aiOld)
			} else {
				lo = maxf(0, aiOld+ajOld-cfg.C)
				hi = minf(cfg.C, aiOld+ajOld)
			}
			if lo == hi {
				continue
			}
			rowI, rowJ := km.row(i), km.row(j)
			eta := 2*rowI[j] - rowI[i] - rowJ[j]
			if eta >= 0 {
				continue
			}
			aj := ajOld - y[j]*(Ei-Ej)/eta
			if aj > hi {
				aj = hi
			} else if aj < lo {
				aj = lo
			}
			if absf(aj-ajOld) < 1e-7 {
				continue
			}
			ai := aiOld + y[i]*y[j]*(ajOld-aj)
			alpha[i], alpha[j] = ai, aj

			b1 := b - Ei - y[i]*(ai-aiOld)*rowI[i] - y[j]*(aj-ajOld)*rowI[j]
			b2 := b - Ej - y[i]*(ai-aiOld)*rowI[j] - y[j]*(aj-ajOld)*rowJ[j]
			switch {
			case ai > 0 && ai < cfg.C:
				b = b1
			case aj > 0 && aj < cfg.C:
				b = b2
			default:
				b = (b1 + b2) / 2
			}
			di, dj := (ai-aiOld)*y[i], (aj-ajOld)*y[j]
			for k := 0; k < n; k++ {
				fval[k] += di*rowI[k] + dj*rowJ[k]
			}
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	m := &binary{Bias: b}
	for i, a := range alpha {
		if a > 1e-9 {
			sv := make([]float64, len(X[i]))
			copy(sv, X[i])
			m.SupportVectors = append(m.SupportVectors, sv)
			m.Coefficients = append(m.Coefficients, a*y[i])
		}
	}
	return m, nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func absf(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}
