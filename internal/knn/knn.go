// Package knn implements a k-nearest-neighbour classifier over the same
// fingerprint feature vectors as the SVM, serving as an extra
// scene-analysis baseline in the classifier ablation (the Redpin system
// the paper cites for its kernel choice is itself fingerprint-kNN-like).
package knn

import "fmt"

// Classifier is a trained (memorised) k-NN model.
type Classifier struct {
	k      int
	points [][]float64
	labels []string
}

// Train memorises the training set. k must be positive and no larger
// than the training-set size; rows must be rectangular.
func Train(X [][]float64, labels []string, k int) (*Classifier, error) {
	if len(X) == 0 || len(X) != len(labels) {
		return nil, fmt.Errorf("knn: bad training set (%d rows, %d labels)", len(X), len(labels))
	}
	if k < 1 || k > len(X) {
		return nil, fmt.Errorf("knn: k=%d outside [1, %d]", k, len(X))
	}
	dim := len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return nil, fmt.Errorf("knn: row %d has %d features, want %d", i, len(row), dim)
		}
	}
	c := &Classifier{k: k}
	for i, row := range X {
		cp := make([]float64, len(row))
		copy(cp, row)
		c.points = append(c.points, cp)
		c.labels = append(c.labels, labels[i])
	}
	return c, nil
}

// Predict returns the majority label among the k nearest training points
// (Euclidean distance). Ties break towards the label of the closest
// tied-vote neighbour, making predictions deterministic.
//
// The k nearest are found by partial selection — a bounded insertion
// into a k-sized buffer ordered by (squared distance, index) — instead
// of materialising and sorting the full distance list; k is tiny next to
// the training-set size, so selection is O(n·k) with no allocation
// beyond the buffer, versus O(n·log n) and an n-sized slice for a sort.
func (c *Classifier) Predict(x []float64) string {
	type neighbour struct {
		d2    float64
		index int
	}
	ns := make([]neighbour, 0, c.k)
	for i, p := range c.points {
		var d2 float64
		for j := range p {
			d := p[j] - x[j]
			d2 += d * d
		}
		if len(ns) == c.k {
			last := ns[c.k-1]
			if d2 > last.d2 || (d2 == last.d2 && i > last.index) {
				continue
			}
			ns = ns[:c.k-1]
		}
		// Insert keeping (d2, index) order; equal squared distances keep
		// the lower index first, matching a stable full sort.
		pos := len(ns)
		for pos > 0 && (ns[pos-1].d2 > d2 || (ns[pos-1].d2 == d2 && ns[pos-1].index > i)) {
			pos--
		}
		ns = append(ns, neighbour{})
		copy(ns[pos+1:], ns[pos:])
		ns[pos] = neighbour{d2: d2, index: i}
	}
	votes := map[string]int{}
	first := map[string]int{} // rank of each label's closest neighbour
	for rank := range ns {
		l := c.labels[ns[rank].index]
		votes[l]++
		if _, seen := first[l]; !seen {
			first[l] = rank
		}
	}
	best, bestVotes, bestFirst := "", -1, len(c.points)
	for l, v := range votes {
		if v > bestVotes || (v == bestVotes && first[l] < bestFirst) {
			best, bestVotes, bestFirst = l, v, first[l]
		}
	}
	return best
}
