// Package geom provides the 2-D geometry primitives used by the building
// model, the mobility models and the radio propagation model: points,
// segments and rectangles, with the operations the simulator needs
// (distance, containment, segment intersection and wall-crossing
// counts).
//
// The coordinate system is metres on a single floor, x growing east and y
// growing north.
package geom

import (
	"fmt"
	"math"
)

// Point is a position on the floor plan, in metres.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Cross returns the z-component of the cross product p × q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Lerp linearly interpolates from p to q; t = 0 gives p, t = 1 gives q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Segment is a straight line segment between two points; the building
// model uses segments for walls.
type Segment struct {
	A, B Point
}

// Seg is shorthand for Segment{a, b}.
func Seg(a, b Point) Segment { return Segment{a, b} }

// orientation classifies the turn a→b→c: +1 counter-clockwise, -1
// clockwise, 0 collinear (within eps).
func orientation(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	const eps = 1e-12
	switch {
	case v > eps:
		return 1
	case v < -eps:
		return -1
	default:
		return 0
	}
}

// onSegment reports whether collinear point p lies on segment s.
func onSegment(s Segment, p Point) bool {
	return math.Min(s.A.X, s.B.X)-1e-12 <= p.X && p.X <= math.Max(s.A.X, s.B.X)+1e-12 &&
		math.Min(s.A.Y, s.B.Y)-1e-12 <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)+1e-12
}

// Intersects reports whether segments s and t share at least one point.
func (s Segment) Intersects(t Segment) bool {
	o1 := orientation(s.A, s.B, t.A)
	o2 := orientation(s.A, s.B, t.B)
	o3 := orientation(t.A, t.B, s.A)
	o4 := orientation(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 {
		return true
	}
	// Collinear special cases.
	if o1 == 0 && onSegment(s, t.A) {
		return true
	}
	if o2 == 0 && onSegment(s, t.B) {
		return true
	}
	if o3 == 0 && onSegment(t, s.A) {
		return true
	}
	if o4 == 0 && onSegment(t, s.B) {
		return true
	}
	return false
}

// Rect is an axis-aligned rectangle, the footprint of a simple room.
// Min is the south-west corner, Max the north-east corner.
type Rect struct {
	Min, Max Point
}

// NewRect builds a Rect from any two opposite corners, normalising the
// order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Width returns the extent along x.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the extent along y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Contains reports whether p lies inside the rectangle or on its border.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Edges returns the four boundary segments in counter-clockwise order
// starting from the bottom edge.
func (r Rect) Edges() [4]Segment {
	bl := r.Min
	br := Point{r.Max.X, r.Min.Y}
	tr := r.Max
	tl := Point{r.Min.X, r.Max.Y}
	return [4]Segment{Seg(bl, br), Seg(br, tr), Seg(tr, tl), Seg(tl, bl)}
}

// CrossingCount returns how many of the walls the segment from a to b
// crosses. The radio model charges a per-wall attenuation based on this
// count.
func CrossingCount(a, b Point, walls []Segment) int {
	path := Seg(a, b)
	n := 0
	for _, w := range walls {
		if path.Intersects(w) {
			n++
		}
	}
	return n
}
