package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
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
		centre := Pt((r.Min.X+r.Max.X)/2, (r.Min.Y+r.Max.Y)/2)
		return r.Contains(centre) && r.Contains(r.Min) && r.Contains(r.Max)
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
