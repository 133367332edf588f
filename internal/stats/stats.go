// Package stats holds the small numerical toolkit the benchmark harness
// uses: throughput series keyed by a swept parameter, speedup tables, and
// fixed-width text rendering of the paper's figures.
//
// Every figure in the paper is either "throughput (bytes/sec) versus a
// swept integer parameter, one curve per message size" (Figures 3-6) or
// "speedup versus processes/dimension, one curve per problem size"
// (Figures 7-8). Series and Table model exactly those two shapes.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one measurement: X is the swept parameter (message length,
// process count, grid dimension), Y the measured value (bytes/sec or
// speedup).
type Point struct {
	X int
	Y float64
}

// Series is one labelled curve.
type Series struct {
	Label  string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x int, y float64) {
	s.Points = append(s.Points, Point{X: x, Y: y})
}

// Y returns the Y value at x, and whether it exists.
func (s *Series) Y(x int) (float64, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y, true
		}
	}
	return 0, false
}

// Max returns the largest Y in the series (0 for an empty series).
func (s *Series) Max() float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Y > m {
			m = p.Y
		}
	}
	return m
}

// ArgMax returns the X of the largest Y (0 for an empty series).
func (s *Series) ArgMax() int {
	m, arg := math.Inf(-1), 0
	for _, p := range s.Points {
		if p.Y > m {
			m, arg = p.Y, p.X
		}
	}
	return arg
}

// Monotone reports whether Y is non-decreasing in X (after sorting by X).
func (s *Series) Monotone() bool {
	pts := append([]Point(nil), s.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].X < pts[j].X })
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			return false
		}
	}
	return true
}

// Figure is a family of curves sharing axes — one paper figure.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// NewFigure creates an empty figure.
func NewFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates, attaches and returns a new labelled series.
func (f *Figure) AddSeries(label string) *Series {
	s := &Series{Label: label}
	f.Series = append(f.Series, s)
	return s
}

// Get returns the series with the given label, or nil.
func (f *Figure) Get(label string) *Series {
	for _, s := range f.Series {
		if s.Label == label {
			return s
		}
	}
	return nil
}

// xs returns the sorted union of X values across all series.
func (f *Figure) xs() []int {
	set := map[int]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			set[p.X] = true
		}
	}
	xs := make([]int, 0, len(set))
	for x := range set {
		xs = append(xs, x)
	}
	sort.Ints(xs)
	return xs
}

// Render formats the figure as a fixed-width table: one row per X, one
// column per series — the same rows/series the paper plots.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%s (rows) vs %s (cells)\n", f.XLabel, f.YLabel)

	colw := 14
	fmt.Fprintf(&b, "%-10s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%*s", colw, truncate(s.Label, colw-2))
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 10+colw*len(f.Series)))
	for _, x := range f.xs() {
		fmt.Fprintf(&b, "%-10d", x)
		for _, s := range f.Series {
			if y, ok := s.Y(x); ok {
				fmt.Fprintf(&b, "%*s", colw, formatY(y))
			} else {
				fmt.Fprintf(&b, "%*s", colw, "-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatY(y float64) string {
	switch {
	case y == 0:
		return "0"
	case math.Abs(y) >= 100000:
		return fmt.Sprintf("%.0f", y)
	case math.Abs(y) >= 100:
		return fmt.Sprintf("%.1f", y)
	default:
		return fmt.Sprintf("%.3f", y)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Speedup converts a series of execution times into a speedup series
// relative to the time at baseX: speedup(x) = T(baseX)/T(x) * scale.
// The paper's Figure 8 uses baseX = 2 (the 4-process solver) with
// scale 1.
func Speedup(times *Series, baseX int, scale float64) (*Series, error) {
	base, ok := times.Y(baseX)
	if !ok || base <= 0 {
		return nil, fmt.Errorf("stats: no positive baseline at x=%d", baseX)
	}
	out := &Series{Label: times.Label}
	for _, p := range times.Points {
		if p.Y <= 0 {
			return nil, fmt.Errorf("stats: non-positive time %g at x=%d", p.Y, p.X)
		}
		out.Add(p.X, base/p.Y*scale)
	}
	return out, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Throughput converts (bytes, seconds) to bytes/sec, guarding zero time.
func Throughput(bytes int, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds
}
