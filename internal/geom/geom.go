// Package geom provides the planar geometry primitives used throughout the
// repository: points, axis-aligned rectangles (MBRs), line segments and
// ellipses. Indoor floor plans are modeled with axis-aligned partitions, so
// rectangles carry most of the load; ellipses exist for the UR baseline's
// uncertainty regions.
//
// All coordinates are in meters. A third pseudo-dimension, the floor index,
// is handled by the indoor model rather than here: geometry within one floor
// is strictly planar.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Lerp returns the point a fraction t of the way from p to q.
// t=0 yields p, t=1 yields q; t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.3f, %.3f)", p.X, p.Y) }

// Segment is a straight line segment from A to B.
type Segment struct {
	A, B Point
}

// Len returns the segment length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Midpoint returns the segment midpoint.
func (s Segment) Midpoint() Point { return s.A.Lerp(s.B, 0.5) }
