package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

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
}

func TestPointDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); !almostEq(d, 5, 1e-12) {
		t.Errorf("Dist = %v, want 5", d)
	}
}

func TestPointLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestSegment(t *testing.T) {
	s := Segment{Pt(0, 0), Pt(10, 0)}
	if !almostEq(s.Len(), 10, 1e-12) {
		t.Errorf("Len = %v", s.Len())
	}
	if s.Midpoint() != Pt(5, 0) {
		t.Errorf("Midpoint = %v", s.Midpoint())
	}
}

func TestRectNormalization(t *testing.T) {
	r := R(5, 7, 1, 2)
	want := Rect{MinX: 1, MinY: 2, MaxX: 5, MaxY: 7}
	if r != want {
		t.Errorf("R normalization = %v, want %v", r, want)
	}
}

func TestRectBasics(t *testing.T) {
	r := R(0, 0, 4, 3)
	if !almostEq(r.Area(), 12, 1e-12) {
		t.Errorf("Area = %v", r.Area())
	}
	if r.Center() != Pt(2, 1.5) {
		t.Errorf("Center = %v", r.Center())
	}
	if !r.ContainsPoint(Pt(0, 0)) || !r.ContainsPoint(Pt(4, 3)) {
		t.Error("boundary points should be contained")
	}
	if r.ContainsPoint(Pt(4.001, 3)) {
		t.Error("outside point contained")
	}
}

func TestRectEmpty(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 || e.Width() != 0 || e.Height() != 0 {
		t.Error("empty rect should have zero measures")
	}
	r := R(0, 0, 1, 1)
	if got := e.Union(r); got != r {
		t.Errorf("empty union identity failed: %v", got)
	}
	if got := r.Union(e); got != r {
		t.Errorf("union with empty failed: %v", got)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Error("empty rect should intersect nothing")
	}
	if !r.ContainsRect(e) {
		t.Error("every rect contains the empty rect")
	}
	if e.ContainsRect(r) {
		t.Error("empty rect contains nothing")
	}
}

func TestRectIntersection(t *testing.T) {
	a := R(0, 0, 4, 4)
	b := R(2, 2, 6, 6)
	got := a.Intersection(b)
	if got != R(2, 2, 4, 4) {
		t.Errorf("Intersection = %v", got)
	}
	c := R(5, 5, 7, 7)
	if !a.Intersection(c).IsEmpty() {
		t.Error("disjoint intersection should be empty")
	}
	// Touching edges intersect with zero area.
	d := R(4, 0, 8, 4)
	if !a.Intersects(d) {
		t.Error("touching rects should intersect")
	}
	if a.Intersection(d).Area() != 0 {
		t.Error("touching intersection should have zero area")
	}
}

func TestRectExpand(t *testing.T) {
	r := R(1, 1, 3, 3)
	if got := r.Expand(1); got != R(0, 0, 4, 4) {
		t.Errorf("Expand(1) = %v", got)
	}
	if got := r.Expand(-2); !got.IsEmpty() {
		t.Errorf("over-shrink should be empty, got %v", got)
	}
}

func TestRectAround(t *testing.T) {
	r := RectAround(Pt(5, 5), 2)
	if r != R(3, 3, 7, 7) {
		t.Errorf("RectAround = %v", r)
	}
}

// Property: union is commutative, associative in area, and contains both.
func TestRectUnionProperties(t *testing.T) {
	f := func(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1000)
		}
		a := R(clamp(ax1), clamp(ay1), clamp(ax2), clamp(ay2))
		b := R(clamp(bx1), clamp(by1), clamp(bx2), clamp(by2))
		u := a.Union(b)
		return u == b.Union(a) && u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: intersection is contained in both operands and intersects
// symmetrically.
func TestRectIntersectionProperties(t *testing.T) {
	f := func(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1000)
		}
		a := R(clamp(ax1), clamp(ay1), clamp(ax2), clamp(ay2))
		b := R(clamp(bx1), clamp(by1), clamp(bx2), clamp(by2))
		i := a.Intersection(b)
		if a.Intersects(b) != b.Intersects(a) {
			return false
		}
		if i.IsEmpty() {
			return true
		}
		return a.ContainsRect(i) && b.ContainsRect(i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEllipseBasics(t *testing.T) {
	// Circle: coincident foci, SumDist = 2r.
	c := NewEllipse(Pt(0, 0), Pt(0, 0), 4) // radius 2
	if !almostEq(c.SemiMajor(), 2, 1e-12) || !almostEq(c.SemiMinor(), 2, 1e-12) {
		t.Errorf("circle axes = %v, %v", c.SemiMajor(), c.SemiMinor())
	}
	if !almostEq(c.Area(), math.Pi*4, 1e-9) {
		t.Errorf("circle area = %v", c.Area())
	}
	if !c.Contains(Pt(2, 0)) || c.Contains(Pt(2.01, 0)) {
		t.Error("circle containment broken")
	}
}

func TestEllipseClamping(t *testing.T) {
	e := NewEllipse(Pt(0, 0), Pt(10, 0), 2) // sumDist below focal distance
	if e.SumDist < 10 {
		t.Errorf("SumDist should be clamped to focal distance, got %v", e.SumDist)
	}
	if e.SemiMinor() != 0 {
		t.Errorf("degenerate ellipse should have zero semi-minor, got %v", e.SemiMinor())
	}
}

func TestEllipseBounds(t *testing.T) {
	// Axis-aligned ellipse along X: foci (±3, 0), a=5 => b=4.
	e := NewEllipse(Pt(-3, 0), Pt(3, 0), 10)
	b := e.Bounds()
	if !almostEq(b.MinX, -5, 1e-9) || !almostEq(b.MaxX, 5, 1e-9) ||
		!almostEq(b.MinY, -4, 1e-9) || !almostEq(b.MaxY, 4, 1e-9) {
		t.Errorf("Bounds = %v", b)
	}
	// Rotated 90 degrees: foci (0, ±3).
	e2 := NewEllipse(Pt(0, -3), Pt(0, 3), 10)
	b2 := e2.Bounds()
	if !almostEq(b2.MaxY, 5, 1e-9) || !almostEq(b2.MaxX, 4, 1e-9) {
		t.Errorf("rotated Bounds = %v", b2)
	}
}

func TestEllipseOverlapFraction(t *testing.T) {
	e := NewEllipse(Pt(-3, 0), Pt(3, 0), 10) // a=5, b=4
	full := e.OverlapFraction(R(-10, -10, 10, 10), 64)
	if !almostEq(full, 1, 1e-9) {
		t.Errorf("full overlap = %v, want 1", full)
	}
	none := e.OverlapFraction(R(20, 20, 30, 30), 64)
	if none != 0 {
		t.Errorf("no overlap = %v, want 0", none)
	}
	// Right half-plane: should be ~0.5 by symmetry.
	half := e.OverlapFraction(R(0, -10, 10, 10), 128)
	if !almostEq(half, 0.5, 0.03) {
		t.Errorf("half overlap = %v, want ~0.5", half)
	}
}

func TestEllipseOverlapDegenerate(t *testing.T) {
	// Degenerate ellipse = focal segment along [0,4]x{0}. Grid samples land
	// on the segment, so the overlap fraction is the covered length share.
	e := NewEllipse(Pt(0, 0), Pt(4, 0), 0)
	if f := e.OverlapFraction(R(1, -1, 3, 1), 16); !almostEq(f, 0.5, 0.1) {
		t.Errorf("degenerate segment overlap = %v, want ~0.5", f)
	}
	if f := e.OverlapFraction(R(10, 10, 11, 11), 16); f != 0 {
		t.Errorf("degenerate disjoint = %v, want 0", f)
	}
}

// Property: OverlapFraction is within [0, 1] and monotone under rect growth.
func TestEllipseOverlapProperties(t *testing.T) {
	f := func(fx, fy, sum, rx, ry, rw, rh float64) bool {
		norm := func(v, scale float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(math.Abs(v), scale)
		}
		e := NewEllipse(Pt(norm(fx, 50), norm(fy, 50)), Pt(norm(fy, 50), norm(fx, 50)), norm(sum, 100))
		r := R(norm(rx, 50), norm(ry, 50), norm(rx, 50)+norm(rw, 50), norm(ry, 50)+norm(rh, 50))
		frac := e.OverlapFraction(r, 24)
		if frac < 0 || frac > 1 {
			return false
		}
		bigger := e.OverlapFraction(r.Expand(10), 24)
		return bigger >= frac-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
