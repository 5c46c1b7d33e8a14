package geom

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned rectangle with min/max corners. A Rect is valid
// when MinX <= MaxX and MinY <= MaxY. The zero Rect is a degenerate
// rectangle at the origin. EmptyRect returns an explicitly empty rectangle
// suitable as the identity for Union.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// R builds a Rect from two corner coordinates, normalizing order.
func R(x1, y1, x2, y2 float64) Rect {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Rect{MinX: x1, MinY: y1, MaxX: x2, MaxY: y2}
}

// RectAround returns the square of side 2r centered at p.
func RectAround(p Point, r float64) Rect {
	return Rect{MinX: p.X - r, MinY: p.Y - r, MaxX: p.X + r, MaxY: p.Y + r}
}

// EmptyRect returns the identity element for Union: a rectangle that
// contains nothing and unions to the other operand.
func EmptyRect() Rect {
	return Rect{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// IsEmpty reports whether r contains no points.
func (r Rect) IsEmpty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }

// Width returns the extent along X (0 for empty rectangles).
func (r Rect) Width() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxX - r.MinX
}

// Height returns the extent along Y (0 for empty rectangles).
func (r Rect) Height() float64 {
	if r.IsEmpty() {
		return 0
	}
	return r.MaxY - r.MinY
}

// Area returns the rectangle's area (0 for empty rectangles).
func (r Rect) Area() float64 { return r.Width() * r.Height() }

// Center returns the rectangle's center point.
func (r Rect) Center() Point {
	return Point{(r.MinX + r.MaxX) / 2, (r.MinY + r.MaxY) / 2}
}

// ContainsPoint reports whether p lies in r (boundary inclusive).
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely within r.
func (r Rect) ContainsRect(s Rect) bool {
	if s.IsEmpty() {
		return true
	}
	if r.IsEmpty() {
		return false
	}
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share at least one point
// (boundary touch counts).
func (r Rect) Intersects(s Rect) bool {
	if r.IsEmpty() || s.IsEmpty() {
		return false
	}
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Intersection returns the overlapping region of r and s
// (possibly empty).
func (r Rect) Intersection(s Rect) Rect {
	out := Rect{
		MinX: math.Max(r.MinX, s.MinX),
		MinY: math.Max(r.MinY, s.MinY),
		MaxX: math.Min(r.MaxX, s.MaxX),
		MaxY: math.Min(r.MaxY, s.MaxY),
	}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.IsEmpty() {
		return s
	}
	if s.IsEmpty() {
		return r
	}
	return Rect{
		MinX: math.Min(r.MinX, s.MinX),
		MinY: math.Min(r.MinY, s.MinY),
		MaxX: math.Max(r.MaxX, s.MaxX),
		MaxY: math.Max(r.MaxY, s.MaxY),
	}
}

// Expand returns r grown by d on every side. Negative d shrinks and may
// produce an empty rectangle.
func (r Rect) Expand(d float64) Rect {
	if r.IsEmpty() {
		return r
	}
	out := Rect{r.MinX - d, r.MinY - d, r.MaxX + d, r.MaxY + d}
	if out.IsEmpty() {
		return EmptyRect()
	}
	return out
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.2f,%.2f - %.2f,%.2f]", r.MinX, r.MinY, r.MaxX, r.MaxY)
}
