package geom

import "math"

// SegmentIndex is a uniform-grid spatial index over a fixed set of
// segments, built once and queried many times. The radio model uses it so
// a wall-crossing count tests only the walls near the query path instead
// of every wall in the building.
//
// The index is immutable after construction and safe for concurrent
// queries.
type SegmentIndex struct {
	segs []Segment

	minX, minY float64
	cell       float64 // cell edge length, metres
	nx, ny     int
	// cells[cy*nx+cx] lists the indices of segments whose bounding box
	// overlaps that cell.
	cells [][]int32
}

// indexCandidateCap bounds the stack-allocated dedupe buffer used during
// queries; queries that would overflow it fall back to a linear scan.
const indexCandidateCap = 128

// NewSegmentIndex builds an index over segs with the given cell size.
// cell <= 0 selects a default of 2 m. A nil or empty segment set yields
// an index whose queries always return zero.
func NewSegmentIndex(segs []Segment, cell float64) *SegmentIndex {
	if cell <= 0 {
		cell = 2
	}
	idx := &SegmentIndex{segs: segs, cell: cell}
	if len(segs) == 0 {
		return idx
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, s := range segs {
		minX = math.Min(minX, math.Min(s.A.X, s.B.X))
		minY = math.Min(minY, math.Min(s.A.Y, s.B.Y))
		maxX = math.Max(maxX, math.Max(s.A.X, s.B.X))
		maxY = math.Max(maxY, math.Max(s.A.Y, s.B.Y))
	}
	idx.minX, idx.minY = minX, minY
	idx.nx = int((maxX-minX)/cell) + 1
	idx.ny = int((maxY-minY)/cell) + 1
	const maxCellsPerAxis = 512
	if idx.nx > maxCellsPerAxis {
		idx.nx = maxCellsPerAxis
		idx.cell = math.Max(idx.cell, (maxX-minX)/float64(maxCellsPerAxis-1))
	}
	if idx.ny > maxCellsPerAxis {
		idx.ny = maxCellsPerAxis
		idx.cell = math.Max(idx.cell, (maxY-minY)/float64(maxCellsPerAxis-1))
	}
	idx.cells = make([][]int32, idx.nx*idx.ny)
	for i, s := range segs {
		x0, y0 := idx.cellOf(math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y))
		x1, y1 := idx.cellOf(math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y))
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				c := cy*idx.nx + cx
				idx.cells[c] = append(idx.cells[c], int32(i))
			}
		}
	}
	return idx
}

// cellOf maps a coordinate to a clamped cell coordinate.
func (idx *SegmentIndex) cellOf(x, y float64) (int, int) {
	cx := int((x - idx.minX) / idx.cell)
	cy := int((y - idx.minY) / idx.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= idx.nx {
		cx = idx.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= idx.ny {
		cy = idx.ny - 1
	}
	return cx, cy
}

// CrossingCount returns how many indexed segments the segment from a to b
// crosses. It is equivalent to geom.CrossingCount over the indexed set.
func (idx *SegmentIndex) CrossingCount(a, b Point) int {
	if len(idx.segs) == 0 {
		return 0
	}
	// Every indexed segment lives inside the grid, so any intersection
	// point lies in a grid cell overlapped by the query's bounding box;
	// visiting those cells finds every candidate.
	x0, y0 := idx.cellOf(math.Min(a.X, b.X), math.Min(a.Y, b.Y))
	x1, y1 := idx.cellOf(math.Max(a.X, b.X), math.Max(a.Y, b.Y))
	path := Seg(a, b)

	// Collect candidate segment ids into a stack buffer, deduplicating
	// (a segment registered in several cells must be tested once). The
	// candidate sets are small for realistic floor plans; if the buffer
	// would overflow, fall back to the exact linear scan.
	var buf [indexCandidateCap]int32
	cand := buf[:0]
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range idx.cells[cy*idx.nx+cx] {
				seen := false
				for _, c := range cand {
					if c == id {
						seen = true
						break
					}
				}
				if seen {
					continue
				}
				if len(cand) == indexCandidateCap {
					return CrossingCount(a, b, idx.segs)
				}
				cand = append(cand, id)
			}
		}
	}
	n := 0
	for _, id := range cand {
		if path.Intersects(idx.segs[id]) {
			n++
		}
	}
	return n
}
