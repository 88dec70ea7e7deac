package svm

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"occusim/internal/par"
)

// Model is a trained multi-class SVM: a one-vs-one ensemble of binary
// machines with majority voting, plus the fitted feature scaler. The
// machines share their support vectors: the model keeps one table of
// the distinct ones, and a prediction evaluates the kernel once per
// distinct support vector, however many machines name it.
type Model struct {
	classes []string
	pairs   []pair
	svs     [][]float64 // the distinct support vectors, standardised
	scaler  *Scaler
	kernel  Kernel
}

// pair is one binary machine of the ensemble,
// f(x) = bias + Σ coef[i]·K(svs[sv[i]], x), voting a on f ≥ 0 and b
// otherwise.
type pair struct {
	a, b int       // class indices
	sv   []int     // the machine's support vectors, as rows of Model.svs
	coef []float64 // αᵢ·yᵢ per support vector
	bias float64
}

// Train fits a one-vs-one multi-class SVM on the labelled rows. X and
// labels must have equal non-zero length; at least two distinct classes
// are required. Features are standardised internally.
func Train(X [][]float64, labels []string, cfg TrainConfig) (*Model, error) {
	if len(X) == 0 || len(X) != len(labels) {
		return nil, fmt.Errorf("svm: bad training set (%d rows, %d labels)", len(X), len(labels))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scaler, err := FitScaler(X)
	if err != nil {
		return nil, err
	}
	return trainScaled(scaler.TransformAll(X), labels, scaler, nil, cfg)
}

// trainScaled fits the one-vs-one ensemble on rows that are already
// standardised with scaler. norms optionally carries the rows' squared
// norms (computed here when nil); every pairwise machine slices its
// subset out of the shared vector instead of recomputing dot products,
// which is what lets the grid search reuse one fold-scaling across the
// whole (C, γ) grid.
func trainScaled(Xs [][]float64, labels []string, scaler *Scaler, norms []float64, cfg TrainConfig) (*Model, error) {
	classSet := map[string]bool{}
	for _, l := range labels {
		classSet[l] = true
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	if len(classes) < 2 {
		return nil, fmt.Errorf("svm: need at least 2 classes, got %d", len(classes))
	}
	classIdx := map[string]int{}
	for i, c := range classes {
		classIdx[c] = i
	}

	cfgDef := cfg.withDefaults(len(Xs[0]))
	if norms == nil {
		norms = squaredNorms(Xs)
	}
	var machines []pairJSON
	for a := 0; a < len(classes); a++ {
		for b := a + 1; b < len(classes); b++ {
			var px [][]float64
			var py, pn []float64
			for i, l := range labels {
				switch classIdx[l] {
				case a:
					px = append(px, Xs[i])
					py = append(py, 1)
					pn = append(pn, norms[i])
				case b:
					px = append(px, Xs[i])
					py = append(py, -1)
					pn = append(pn, norms[i])
				}
			}
			pairCfg := cfgDef
			// Distinct but deterministic seed per pair.
			pairCfg.Seed = cfg.Seed ^ uint64(a*1000003+b)
			bm, err := trainBinary(px, py, pn, pairCfg)
			if err != nil {
				return nil, fmt.Errorf("svm: pair (%s, %s): %w", classes[a], classes[b], err)
			}
			machines = append(machines, pairJSON{A: a, B: b, Binary: bm})
		}
	}
	return assemble(classes, cfgDef.Kernel, scaler, machines)
}

// assemble builds a model from its machines, sharing their support
// vectors: each distinct row enters the table once, and each pair names
// its rows by index. Rows are told apart by their float64 bits, because
// a serialised model carries each machine's own copy of every row. A
// model a prediction could not run is refused: fewer than 2 classes, a
// pair outside them, a machine with other than one coefficient per
// support vector, or a row or scaler statistic whose width is not the
// scaler's.
func assemble(classes []string, kernel Kernel, scaler *Scaler, machines []pairJSON) (*Model, error) {
	if len(classes) < 2 {
		return nil, fmt.Errorf("svm: need at least 2 classes, got %d", len(classes))
	}
	width := len(scaler.Mean)
	if len(scaler.Std) != width {
		return nil, fmt.Errorf("svm: scaler has %d means and %d deviations", width, len(scaler.Std))
	}
	m := &Model{classes: classes, scaler: scaler, kernel: kernel, pairs: make([]pair, len(machines))}
	index := map[string]int{} // a row's float64 bits → its table index
	key := make([]byte, 8*width)
	for i, pj := range machines {
		bm := pj.Binary
		if bm == nil {
			return nil, fmt.Errorf("svm: pair (%d,%d) has no machine", pj.A, pj.B)
		}
		if !(0 <= pj.A && pj.A < pj.B && pj.B < len(classes)) {
			return nil, fmt.Errorf("svm: pair (%d,%d) is not two of %d classes", pj.A, pj.B, len(classes))
		}
		if len(bm.Coefficients) != len(bm.SupportVectors) {
			return nil, fmt.Errorf("svm: pair (%d,%d) has %d coefficients for %d support vectors", pj.A, pj.B, len(bm.Coefficients), len(bm.SupportVectors))
		}
		p := pair{a: pj.A, b: pj.B, sv: make([]int, len(bm.SupportVectors)), coef: bm.Coefficients, bias: bm.Bias}
		for j, row := range bm.SupportVectors {
			if len(row) != width {
				return nil, fmt.Errorf("svm: pair (%d,%d) has a support vector of %d features, the scaler %d", pj.A, pj.B, len(row), width)
			}
			for d, v := range row {
				for bits, b := math.Float64bits(v), 0; b < 8; b++ {
					key[8*d+b] = byte(bits >> (8 * b))
				}
			}
			r, ok := index[string(key)]
			if !ok {
				r = len(m.svs)
				index[string(key)] = r
				m.svs = append(m.svs, row)
			}
			p.sv[j] = r
		}
		m.pairs[i] = p
	}
	return m, nil
}

// Classes returns the sorted class labels the model can predict.
func (m *Model) Classes() []string { return append([]string(nil), m.classes...) }

// NumFeatures returns the feature dimension the model was trained on
// (the scaler is fitted per column, so its statistics carry the width).
func (m *Model) NumFeatures() int {
	if m.scaler == nil {
		return 0
	}
	return len(m.scaler.Mean)
}

// NumSupportVectors returns the total support-vector count across all
// pairwise machines, a rough model-complexity measure. A vector two
// machines share counts twice; the kernel is evaluated on it once.
func (m *Model) NumSupportVectors() int {
	n := 0
	for _, p := range m.pairs {
		n += len(p.sv)
	}
	return n
}

// Scratch is the working memory of one prediction: the standardised
// row followed by one kernel value per distinct support vector (one
// allocation), and the vote tally. A caller that predicts in a loop
// keeps one and passes it to PredictScratch, which then allocates
// nothing once the slices have grown to the model's size. Not safe for
// concurrent use.
type Scratch struct {
	scaled []float64
	votes  []int
}

// fit grows sc to m and splits it: width entries for a standardised
// row, the kernel values and the votes.
func (sc *Scratch) fit(width int, m *Model) (xs, k []float64, votes []int) {
	n := width + len(m.svs)
	if cap(sc.scaled) < n {
		sc.scaled = make([]float64, n)
	}
	if cap(sc.votes) < len(m.classes) {
		sc.votes = make([]int, len(m.classes))
	}
	return sc.scaled[:width], sc.scaled[width:n], sc.votes[:len(m.classes)]
}

// PredictScratch returns the majority-vote class for x, computed on
// caller-owned scratch. Vote ties break towards the lexicographically
// smaller class label, deterministically.
func (m *Model) PredictScratch(x []float64, sc *Scratch) string {
	xs, k, votes := sc.fit(len(x), m)
	return m.predictScaled(m.scaler.transformInto(xs, x), k, votes)
}

// predictScaled is PredictScratch for rows already standardised with the
// model's scaler (the grid search pre-scales each fold's test rows
// once). k (one entry per distinct support vector) and votes (one per
// class) are scratch; their contents are overwritten. Each machine sums
// its terms in its own support-vector order (pair.decision), so its
// decision value is the one a machine holding its own copies would
// compute, bit for bit.
func (m *Model) predictScaled(xs, k []float64, votes []int) string {
	m.kernels(k, xs)
	clear(votes)
	for i := range m.pairs {
		if p := &m.pairs[i]; p.decision(k) >= 0 {
			votes[p.a]++
		} else {
			votes[p.b]++
		}
	}
	best := 0
	for i := 1; i < len(votes); i++ {
		if votes[i] > votes[best] {
			best = i
		}
	}
	return m.classes[best]
}

// decision is the machine's signed decision value, given k, the kernel
// values of the model's support vectors at the row.
func (p *pair) decision(k []float64) float64 {
	s := p.bias
	for j, r := range p.sv {
		s += p.coef[j] * k[r]
	}
	return s
}

// kernels fills k with K(sv, x) for every distinct support vector sv.
// RBF, the paper's kernel, runs inline with RBF.Compute's arithmetic.
func (m *Model) kernels(k, x []float64) {
	rbf, ok := m.kernel.(RBF)
	if !ok {
		for r, sv := range m.svs {
			k[r] = m.kernel.Compute(sv, x)
		}
		return
	}
	for r, sv := range m.svs {
		x := x[:len(sv)]
		var d2 float64
		for i := range sv {
			d := sv[i] - x[i]
			d2 += d * d
		}
		k[r] = math.Exp(-rbf.Gamma * d2)
	}
}

// modelJSON is the serialised form of a Model.
type modelJSON struct {
	Classes []string   `json:"classes"`
	Kernel  kernelJSON `json:"kernel"`
	Scaler  *Scaler    `json:"scaler"`
	Pairs   []pairJSON `json:"pairs"`
}

type kernelJSON struct {
	Type  string  `json:"type"`
	Gamma float64 `json:"gamma,omitempty"`
}

type pairJSON struct {
	A      int     `json:"a"`
	B      int     `json:"b"`
	Binary *binary `json:"machine"`
}

// MarshalJSON implements json.Marshaler so trained models can be stored
// by the BMS and reloaded.
func (m *Model) MarshalJSON() ([]byte, error) {
	kj := kernelJSON{}
	switch k := m.kernel.(type) {
	case RBF:
		kj.Type = "rbf"
		kj.Gamma = k.Gamma
	case Linear:
		kj.Type = "linear"
	default:
		return nil, fmt.Errorf("svm: kernel %q is not serialisable", m.kernel.Name())
	}
	mj := modelJSON{Classes: m.classes, Kernel: kj, Scaler: m.scaler}
	for _, p := range m.pairs {
		bm := &binary{Coefficients: p.coef, Bias: p.bias}
		for _, r := range p.sv {
			bm.SupportVectors = append(bm.SupportVectors, m.svs[r])
		}
		mj.Pairs = append(mj.Pairs, pairJSON{A: p.a, B: p.b, Binary: bm})
	}
	return json.Marshal(mj)
}

// UnmarshalJSON implements json.Unmarshaler. A model a prediction could
// not run on is refused (assemble, checkKernel), and m is left as it
// was.
func (m *Model) UnmarshalJSON(data []byte) error {
	var mj modelJSON
	if err := json.Unmarshal(data, &mj); err != nil {
		return err
	}
	var kernel Kernel
	switch strings.ToLower(mj.Kernel.Type) {
	case "rbf":
		kernel = RBF{Gamma: mj.Kernel.Gamma}
	case "linear":
		kernel = Linear{}
	default:
		return fmt.Errorf("svm: unknown kernel type %q", mj.Kernel.Type)
	}
	if err := checkKernel(kernel); err != nil {
		return err
	}
	if mj.Scaler == nil {
		return fmt.Errorf("svm: serialised model missing scaler")
	}
	back, err := assemble(mj.Classes, kernel, mj.Scaler, mj.Pairs)
	if err != nil {
		return err
	}
	*m = *back
	return nil
}

// GridPoint is one (C, gamma) candidate with its cross-validated
// accuracy.
type GridPoint struct {
	C        float64
	Gamma    float64
	Accuracy float64
}

// cvFold is one pre-resolved cross-validation fold: training and test
// rows standardised once with the fold's own scaler (fit on the
// training split only, as Train would), plus the training rows' squared
// norms. Every grid point reuses these — the fold split, the scaling
// and the norms depend on the data and the shuffle seed, not on (C, γ).
type cvFold struct {
	scaler *Scaler
	trX    [][]float64
	trY    []string
	teX    [][]float64
	teY    []string
	norms  []float64
}

// buildFolds splits (X, labels) round-robin over the permutation seeded
// by seed and resolves each fold's scaling and norms once.
func buildFolds(X [][]float64, labels []string, folds int, seed uint64) ([]cvFold, error) {
	perm := permFromSeed(len(X), seed)
	out := make([]cvFold, 0, folds)
	for f := 0; f < folds; f++ {
		var fd cvFold
		var trRaw, teRaw [][]float64
		for i, pi := range perm {
			if i%folds == f {
				teRaw = append(teRaw, X[pi])
				fd.teY = append(fd.teY, labels[pi])
			} else {
				trRaw = append(trRaw, X[pi])
				fd.trY = append(fd.trY, labels[pi])
			}
		}
		if len(trRaw) == 0 || len(teRaw) == 0 {
			continue
		}
		scaler, err := FitScaler(trRaw)
		if err != nil {
			return nil, err
		}
		fd.scaler = scaler
		fd.trX = scaler.TransformAll(trRaw)
		fd.teX = scaler.TransformAll(teRaw)
		fd.norms = squaredNorms(fd.trX)
		out = append(out, fd)
	}
	return out, nil
}

// GridSearch cross-validates an RBF SVM over the (C, gamma) grid with k
// folds and returns every point evaluated plus the best configuration.
// Folds are assigned round-robin after a deterministic shuffle seeded by
// cfgSeed; each fold's dataset is scaled once and its RBF squared norms
// are shared across the whole grid, so a grid point pays only its own
// SMO solves.
//
// Grid points are independent training problems, so they fan out across
// CPU cores (the folds are read-only once built); the result slice
// keeps grid order and the best point is chosen by an in-order scan, so
// the selection is deterministic.
func GridSearch(X [][]float64, labels []string, cs, gammas []float64, folds int, cfgSeed uint64) ([]GridPoint, GridPoint, error) {
	if folds < 2 {
		return nil, GridPoint{}, fmt.Errorf("svm: grid search needs at least 2 folds, got %d", folds)
	}
	if len(X) < folds {
		return nil, GridPoint{}, fmt.Errorf("svm: %d rows cannot fill %d folds", len(X), folds)
	}
	if len(cs) == 0 || len(gammas) == 0 {
		return nil, GridPoint{}, fmt.Errorf("svm: empty grid")
	}
	fds, err := buildFolds(X, labels, folds, cfgSeed)
	if err != nil {
		return nil, GridPoint{}, err
	}
	points := make([]GridPoint, len(cs)*len(gammas))
	err = par.ForEach(len(points), func(i int) error {
		cfg := TrainConfig{C: cs[i/len(gammas)], Kernel: RBF{Gamma: gammas[i%len(gammas)]}, Seed: cfgSeed}
		correct, total := 0, 0
		var sc Scratch
		for _, fd := range fds {
			m, err := trainScaled(fd.trX, fd.trY, fd.scaler, fd.norms, cfg)
			if err != nil {
				return err
			}
			_, k, votes := sc.fit(0, m)
			for j, x := range fd.teX {
				if m.predictScaled(x, k, votes) == fd.teY[j] {
					correct++
				}
				total++
			}
		}
		if total == 0 {
			return fmt.Errorf("svm: cross-validation produced no test rows")
		}
		points[i] = GridPoint{C: cfg.C, Gamma: gammas[i%len(gammas)], Accuracy: float64(correct) / float64(total)}
		return nil
	})
	if err != nil {
		return nil, GridPoint{}, err
	}
	best := GridPoint{Accuracy: -1}
	for _, p := range points {
		if p.Accuracy > best.Accuracy {
			best = p
		}
	}
	return points, best, nil
}

// permFromSeed returns a deterministic pseudo-random permutation of
// [0, n) derived from seed, without importing math/rand.
func permFromSeed(n int, seed uint64) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s := seed*0x9e3779b97f4a7c15 + 0x1234567
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
