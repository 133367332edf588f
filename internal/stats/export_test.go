package stats

import "fmt"

// SpeedupVs converts execution times into speedups against a fixed
// sequential time.
func SpeedupVs(times *Series, seqTime float64) (*Series, error) {
	if seqTime <= 0 {
		return nil, fmt.Errorf("stats: non-positive sequential time %g", seqTime)
	}
	out := &Series{Label: times.Label}
	for _, p := range times.Points {
		if p.Y <= 0 {
			return nil, fmt.Errorf("stats: non-positive time %g at x=%d", p.Y, p.X)
		}
		out.Add(p.X, seqTime/p.Y)
	}
	return out, nil
}
