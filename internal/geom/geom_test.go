package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
}

func TestDistAndNorm(t *testing.T) {
	if got := Pt(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := Pt(1, 1).Dist(Pt(4, 5)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := a.Lerp(b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestUnit(t *testing.T) {
	u := Pt(3, 4).Unit()
	if math.Abs(u.Norm()-1) > 1e-12 {
		t.Errorf("Unit norm = %v", u.Norm())
	}
	if got := Pt(0, 0).Unit(); got != Pt(0, 0) {
		t.Errorf("Unit of zero = %v", got)
	}
}

func TestSegmentIntersects(t *testing.T) {
	cases := []struct {
		s, u Segment
		want bool
	}{
		// Plain crossing.
		{Seg(Pt(0, 0), Pt(2, 2)), Seg(Pt(0, 2), Pt(2, 0)), true},
		// Parallel, separated.
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(0, 1), Pt(1, 1)), false},
		// Touching at an endpoint.
		{Seg(Pt(0, 0), Pt(1, 1)), Seg(Pt(1, 1), Pt(2, 0)), true},
		// Collinear overlapping.
		{Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0), Pt(3, 0)), true},
		// Collinear disjoint.
		{Seg(Pt(0, 0), Pt(1, 0)), Seg(Pt(2, 0), Pt(3, 0)), false},
		// T-junction.
		{Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, -1), Pt(1, 0)), true},
		// Near miss.
		{Seg(Pt(0, 0), Pt(2, 0)), Seg(Pt(1, 0.001), Pt(1, 1)), false},
	}
	for i, c := range cases {
		if got := c.s.Intersects(c.u); got != c.want {
			t.Errorf("case %d: Intersects = %v, want %v", i, got, c.want)
		}
		// Symmetry.
		if got := c.u.Intersects(c.s); got != c.want {
			t.Errorf("case %d: symmetric Intersects = %v, want %v", i, got, c.want)
		}
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(4, 6), Pt(1, 2)) // corners given out of order
	if r.Min != Pt(1, 2) || r.Max != Pt(4, 6) {
		t.Fatalf("normalisation failed: %+v", r)
	}
	if r.Width() != 3 || r.Height() != 4 || r.Area() != 12 {
		t.Errorf("dims: w=%v h=%v a=%v", r.Width(), r.Height(), r.Area())
	}
	if r.Center() != Pt(2.5, 4) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 2))
	if !r.Contains(Pt(1, 1)) || !r.Contains(Pt(0, 0)) || !r.Contains(Pt(2, 2)) {
		t.Error("Contains should include interior and border")
	}
	if r.Contains(Pt(2.1, 1)) {
		t.Error("Contains accepted outside point")
	}
}

func TestRectEdgesFormClosedLoop(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(3, 2))
	edges := r.Edges()
	var total float64
	for _, e := range edges {
		total += e.A.Dist(e.B)
	}
	if total != 2*(3+2) {
		t.Errorf("perimeter = %v", total)
	}
	for i := range edges {
		next := edges[(i+1)%len(edges)]
		if edges[i].B != next.A {
			t.Errorf("edges %d and %d not chained", i, (i+1)%len(edges))
		}
	}
}

func TestRectIntersects(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(2, 2))
	b := NewRect(Pt(1, 1), Pt(3, 3))
	c := NewRect(Pt(2, 0), Pt(4, 2)) // touches a at x=2
	d := NewRect(Pt(5, 5), Pt(6, 6))
	if !a.Intersects(b) || !b.Intersects(a) {
		t.Error("overlapping rects should intersect")
	}
	if !a.Intersects(c) {
		t.Error("touching rects should intersect")
	}
	if a.Intersects(d) {
		t.Error("distant rects should not intersect")
	}
}

func TestPolygonContains(t *testing.T) {
	// L-shaped room.
	l := Polygon{Vertices: []Point{
		Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4),
	}}
	in := []Point{Pt(1, 1), Pt(3, 1), Pt(1, 3)}
	out := []Point{Pt(3, 3), Pt(5, 1), Pt(-1, -1)}
	for _, p := range in {
		if !l.Contains(p) {
			t.Errorf("Contains(%v) = false, want true", p)
		}
	}
	for _, p := range out {
		if l.Contains(p) {
			t.Errorf("Contains(%v) = true, want false", p)
		}
	}
}

func TestPolygonDegenerate(t *testing.T) {
	if (Polygon{Vertices: []Point{Pt(0, 0), Pt(1, 1)}}).Contains(Pt(0.5, 0.5)) {
		t.Error("2-vertex polygon cannot contain points")
	}
	if got := (Polygon{}).Area(); got != 0 {
		t.Errorf("empty polygon area = %v", got)
	}
	if (Polygon{Vertices: []Point{Pt(0, 0)}}).Edges() != nil {
		t.Error("single vertex polygon should have no edges")
	}
}

func TestPolygonArea(t *testing.T) {
	sq := Polygon{Vertices: []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}}
	if got := sq.Area(); got != 4 {
		t.Errorf("square area = %v", got)
	}
	l := Polygon{Vertices: []Point{
		Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4),
	}}
	if got := l.Area(); got != 12 {
		t.Errorf("L area = %v, want 12", got)
	}
}

func TestPolygonEdges(t *testing.T) {
	sq := Polygon{Vertices: []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}}
	edges := sq.Edges()
	if len(edges) != 4 {
		t.Fatalf("edge count = %d", len(edges))
	}
	if edges[3].B != edges[0].A {
		t.Error("polygon edges not closed")
	}
}

func TestCrossingCount(t *testing.T) {
	walls := []Segment{
		Seg(Pt(2, 0), Pt(2, 4)), // vertical wall at x=2
		Seg(Pt(4, 0), Pt(4, 4)), // vertical wall at x=4
	}
	if got := CrossingCount(Pt(0, 2), Pt(1, 2), walls); got != 0 {
		t.Errorf("no-wall path crossings = %d", got)
	}
	if got := CrossingCount(Pt(0, 2), Pt(3, 2), walls); got != 1 {
		t.Errorf("one-wall path crossings = %d", got)
	}
	if got := CrossingCount(Pt(0, 2), Pt(5, 2), walls); got != 2 {
		t.Errorf("two-wall path crossings = %d", got)
	}
}

// Property: distance is symmetric and satisfies identity.
func TestQuickDistSymmetry(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a, b := Pt(ax, ay), Pt(bx, by)
		return math.Abs(a.Dist(b)-b.Dist(a)) < 1e-9 && a.Dist(a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality.
func TestQuickTriangleInequality(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		if anyBad(ax, ay, bx, by, cx, cy) {
			return true
		}
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a rectangle contains its own centre and corners.
func TestQuickRectContainsCenter(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		r := NewRect(Pt(ax, ay), Pt(bx, by))
		return r.Contains(r.Center()) && r.Contains(r.Min) && r.Contains(r.Max)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func anyBad(vals ...float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e15 {
			return true
		}
	}
	return false
}
