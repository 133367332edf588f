// Package gauss implements the paper's first application study: the
// Gauss-Jordan algorithm with partial pivoting for solving linear
// systems (paper §4, Figure 7).
//
// Three solvers share one algorithm, each written once as a program on
// an apps.Runner:
//
//   - RunSequential: the single-process baseline speedups are measured
//     against; SolveSequential is the same elimination as a plain call.
//   - RunMPF: the message-passing version, structured exactly as the
//     paper describes — the matrix is partitioned into equal groups of
//     contiguous rows, one per worker; each iteration every worker sends
//     its local pivot candidate to an arbiter process over an FCFS
//     circuit, the arbiter announces the winner on a broadcast circuit,
//     the winner broadcasts the pivot row, and all workers sweep.
//   - RunShared: the same partitioning using shared memory and a
//     barrier instead of messages — the cross-paradigm comparison the
//     paper's introduction motivates.
//
// SolveMPF and SolveShared run a program on a real facility; given
// apps.Simulated(m), it runs on the simulated Balance 21000, where each
// process's arithmetic costs m's software floating point and a barrier
// one lock per arrival and wakeup: paper Figure 7 ("Speedup vs.
// Processes", one curve per matrix size) and the paradigm ablation.
//
// Rows are never physically exchanged: pivoting marks rows as used, so a
// "pivot row" is any unmarked row holding the column maximum. After n
// iterations each pivot row r with pivot column c is diagonal in c and
// x[c] = A[r][n] / A[r][c].
package gauss

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/wire"
	"repro/mpf"
)

// ErrSingular is returned when no usable pivot exists.
var ErrSingular = errors.New("gauss: matrix is singular or nearly singular")

// pivotEps is the smallest acceptable pivot magnitude.
const pivotEps = 1e-12

// NewSystem generates a well-conditioned random n×n system: uniform
// entries with a strongly dominant diagonal, plus a right-hand side.
func NewSystem(n int, rng *rand.Rand) ([][]float64, []float64) {
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = rng.Float64()*2 - 1
		}
		a[i][i] += float64(n) // diagonal dominance
		b[i] = rng.Float64()*2 - 1
	}
	return a, b
}

// augment builds the n×(n+1) augmented matrix [A|b] as a fresh copy.
func augment(a [][]float64, b []float64) ([][]float64, error) {
	n := len(a)
	if n == 0 {
		return nil, errors.New("gauss: empty system")
	}
	if len(b) != n {
		return nil, fmt.Errorf("gauss: b has %d entries for %d×%d system", len(b), n, n)
	}
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("gauss: row %d has %d entries, want %d", i, len(a[i]), n)
		}
		m[i] = make([]float64, n+1)
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	return m, nil
}

// SolveSequential solves Ax = b by Gauss-Jordan elimination with partial
// pivoting, without mutating its arguments.
func SolveSequential(a [][]float64, b []float64) ([]float64, error) {
	return sequential(a, b, func(int) {})
}

// RunSequential runs SolveSequential as a one-process program on r,
// which accounts for its arithmetic.
func RunSequential(r apps.Runner, a [][]float64, b []float64) (x []float64, err error) {
	err = r.Run(1, func(p apps.Proc) (err error) {
		x, err = sequential(a, b, p.Compute)
		return err
	})
	return x, err
}

// sequential is the elimination both run, reporting its floating-point
// operations to compute.
func sequential(a [][]float64, b []float64, compute func(flops int)) ([]float64, error) {
	m, err := augment(a, b)
	if err != nil {
		return nil, err
	}
	n := len(m)
	marked := make([]bool, n)  // row used as pivot
	pivotCol := make([]int, n) // row -> its pivot column
	for k := 0; k < n; k++ {
		// Partial pivoting: the largest |A[i][k]| over unmarked rows.
		compute(n - k)
		best, bestRow := 0.0, -1
		for i := 0; i < n; i++ {
			if !marked[i] && math.Abs(m[i][k]) > best {
				best, bestRow = math.Abs(m[i][k]), i
			}
		}
		if bestRow < 0 || best < pivotEps {
			return nil, ErrSingular
		}
		sweep(m, k, bestRow, m[bestRow])
		compute((n - 1) * (n + 1 - k) * flopsPerUpdate)
		marked[bestRow] = true
		pivotCol[bestRow] = k
	}
	x := make([]float64, n)
	for r := 0; r < n; r++ {
		c := pivotCol[r]
		x[c] = m[r][n] / m[r][c]
	}
	compute(n) // the divisions
	return x, nil
}

// sweep eliminates column k from every row of rows except rows[pivot] —
// pivot is out of range when rows does not hold the pivot row — using
// pivotRow (which must have pivotRow[k] != 0). Rows already marked are
// swept too — that is what makes this Jordan rather than plain
// Gaussian elimination.
func sweep(rows [][]float64, k, pivot int, pivotRow []float64) {
	n := len(pivotRow) - 1
	pv := pivotRow[k]
	for i, row := range rows {
		if i == pivot {
			continue
		}
		f := row[k] / pv
		if f == 0 {
			continue
		}
		for j := k; j <= n; j++ {
			row[j] -= f * pivotRow[j]
		}
	}
}

// partition returns worker w's row range [lo, hi) for n rows over p
// workers (contiguous, near-equal).
func partition(n, p, w int) (lo, hi int) {
	lo = w * n / p
	hi = (w + 1) * n / p
	return lo, hi
}

// Circuit names used by the MPF version.
const (
	candCircuit = "gj-cand" // workers -> arbiter, FCFS
	selCircuit  = "gj-sel"  // arbiter -> workers, broadcast
	rowCircuit  = "gj-row"  // winner -> workers, broadcast
	xCircuit    = "gj-x"    // workers -> arbiter, FCFS
)

// abortWorker in a sel message signals a singular matrix.
const abortWorker = ^uint32(0)

// flopsPerUpdate is multiply+subtract per swept matrix entry.
const flopsPerUpdate = 2

// SolveMPF solves Ax = b with `workers` message-passing worker processes
// plus one arbiter process, all communicating through fac. fac must
// allow at least workers+1 processes. The matrix partition follows the
// paper: equal-sized groups of contiguous rows.
func SolveMPF(fac *mpf.Facility, workers int, a [][]float64, b []float64) ([]float64, error) {
	return RunMPF(apps.Native(fac), workers, a, b)
}

// RunMPF is the message-passing program: the arbiter and the workers on
// r.
func RunMPF(r apps.Runner, workers int, a [][]float64, b []float64) ([]float64, error) {
	if workers < 1 {
		return nil, fmt.Errorf("gauss: %d workers", workers)
	}
	full, err := augment(a, b)
	if err != nil {
		return nil, err
	}
	n := len(full)
	if workers > n {
		workers = n // more workers than rows is pure overhead
	}
	x := make([]float64, n)

	err = r.Run(workers+1, func(p apps.Proc) error {
		if p.PID() == workers {
			return arbiter(p, workers, n, x)
		}
		return worker(p, workers, n, full)
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// arbiter implements the paper's arbiter process: it collects one pivot
// candidate per worker per iteration, announces the maximum of the
// maxima, and finally assembles the solution vector.
func arbiter(p apps.Proc, workers, n int, x []float64) error {
	cand, err := p.OpenReceive(candCircuit, mpf.FCFS)
	if err != nil {
		return err
	}
	defer cand.Close()
	sel, err := p.OpenSend(selCircuit)
	if err != nil {
		return err
	}
	defer sel.Close()
	xs, err := p.OpenReceive(xCircuit, mpf.FCFS)
	if err != nil {
		return err
	}
	defer xs.Close()

	buf := make([]byte, wire.PivotCandSize)
	selBuf := make([]byte, 0, 2*wire.Uint32Size)
	for k := 0; k < n; k++ {
		best := wire.PivotCand{Worker: abortWorker}
		bestAbs := 0.0
		for w := 0; w < workers; w++ {
			m, err := cand.Receive(buf)
			if err != nil {
				return err
			}
			c, err := wire.DecodePivotCand(buf[:m])
			if err != nil {
				return err
			}
			p.Compute(1) // compare against the running maximum
			if abs := math.Abs(c.Value); abs > bestAbs {
				best, bestAbs = c, abs
			}
		}
		if bestAbs < pivotEps {
			best.Worker = abortWorker // broadcast abort
		}
		selBuf = wire.AppendUint32(selBuf[:0], best.Worker)
		selBuf = wire.AppendUint32(selBuf, best.Row)
		if err := sel.Send(selBuf); err != nil {
			return err
		}
		if best.Worker == abortWorker {
			return ErrSingular
		}
	}

	// Assemble the solution: n (column, value) pairs in any order.
	pair := make([]byte, wire.Uint32Size+wire.Float64Size)
	for i := 0; i < n; i++ {
		m, err := xs.Receive(pair)
		if err != nil {
			return err
		}
		col, rest, err := wire.Uint32(pair[:m])
		if err != nil {
			return err
		}
		v, _, err := wire.Float64(rest)
		if err != nil {
			return err
		}
		if int(col) >= n {
			return fmt.Errorf("gauss: solution column %d out of range", col)
		}
		x[col] = v
	}
	return nil
}

// worker implements one of the paper's row-partition processes.
func worker(p apps.Proc, workers, n int, full [][]float64) error {
	w := p.PID()
	lo, hi := partition(n, workers, w)
	// Copy the partition: message-passing workers own private rows.
	rows := make([][]float64, hi-lo)
	for i := range rows {
		rows[i] = append([]float64(nil), full[lo+i]...)
	}
	marked := make([]bool, hi-lo)
	nMarked := 0
	pivotCol := make([]int, hi-lo)

	cand, err := p.OpenSend(candCircuit)
	if err != nil {
		return err
	}
	defer cand.Close()
	sel, err := p.OpenReceive(selCircuit, mpf.Broadcast)
	if err != nil {
		return err
	}
	defer sel.Close()
	rowSend, err := p.OpenSend(rowCircuit)
	if err != nil {
		return err
	}
	defer rowSend.Close()
	rowRecv, err := p.OpenReceive(rowCircuit, mpf.Broadcast)
	if err != nil {
		return err
	}
	defer rowRecv.Close()
	xs, err := p.OpenSend(xCircuit)
	if err != nil {
		return err
	}
	defer xs.Close()

	candBuf := make([]byte, 0, wire.PivotCandSize)
	selBuf := make([]byte, 2*wire.Uint32Size)
	rowBuf := make([]byte, (n+1)*wire.Float64Size)
	pivotRow := make([]float64, n+1)

	for k := 0; k < n; k++ {
		// Local pivot search over unmarked rows, one compare each.
		p.Compute(len(rows) - nMarked)
		c := wire.PivotCand{Worker: uint32(w), Row: 0, Value: 0}
		for i, row := range rows {
			if !marked[i] && math.Abs(row[k]) > math.Abs(c.Value) {
				c.Row = uint32(lo + i)
				c.Value = row[k]
			}
		}
		if err := cand.Send(c.Encode(candBuf)); err != nil {
			return err
		}

		// The arbiter announces the winner.
		if _, err := sel.Receive(selBuf); err != nil {
			return err
		}
		winner, rest, err := wire.Uint32(selBuf)
		if err != nil {
			return err
		}
		if winner == abortWorker {
			return ErrSingular
		}
		globalRow32, _, err := wire.Uint32(rest)
		if err != nil {
			return err
		}
		globalRow := int(globalRow32)

		// The winner broadcasts the pivot row; everyone (winner
		// included) receives it from the circuit, keeping all streams
		// aligned.
		if int(winner) == w {
			local := globalRow - lo
			if err := rowSend.Send(wire.AppendFloat64s(rowBuf[:0], rows[local])); err != nil {
				return err
			}
			marked[local] = true
			nMarked++
			pivotCol[local] = k
		}
		if _, err := rowRecv.Receive(rowBuf[:cap(rowBuf)]); err != nil {
			return err
		}
		if _, err := wire.Float64s(rowBuf[:cap(rowBuf)], pivotRow); err != nil {
			return err
		}

		// Sweep all local rows except a locally held pivot row over
		// columns k..n.
		sweep(rows, k, globalRow-lo, pivotRow)
		rowsToSweep := len(rows)
		if globalRow >= lo && globalRow < hi {
			rowsToSweep--
		}
		p.Compute(rowsToSweep * (n + 1 - k) * flopsPerUpdate)
	}

	// Ship solution components for locally owned pivot rows.
	pair := make([]byte, 0, wire.Uint32Size+wire.Float64Size)
	for i, row := range rows {
		if !marked[i] {
			return fmt.Errorf("gauss: row %d never pivoted", lo+i)
		}
		c := pivotCol[i]
		p.Compute(1) // the division
		pair = wire.AppendUint32(pair[:0], uint32(c))
		pair = wire.AppendFloat64(pair, row[n]/row[c])
		if err := xs.Send(pair); err != nil {
			return err
		}
	}
	return nil
}

// SolveShared solves Ax = b with RunShared on fac, which must allow
// `workers` processes.
func SolveShared(fac *mpf.Facility, workers int, a [][]float64, b []float64) ([]float64, error) {
	return RunShared(apps.Native(fac), workers, a, b)
}

// RunShared is the shared-memory analogue of RunMPF: the same row
// partition and the same arithmetic, but pivot selection through a
// shared candidate array and barriers instead of circuits, with worker
// 0 as arbiter, and the pivot row read in place — no broadcast copy,
// the paradigm's whole advantage.
func RunShared(r apps.Runner, workers int, a [][]float64, b []float64) ([]float64, error) {
	if workers < 1 {
		return nil, fmt.Errorf("gauss: %d workers", workers)
	}
	m, err := augment(a, b)
	if err != nil {
		return nil, err
	}
	n := len(m)
	if workers > n {
		workers = n
	}
	cands := make([]wire.PivotCand, workers)
	var winner wire.PivotCand
	var singular bool
	marked := make([]bool, n)
	pivotCol := make([]int, n)
	x := make([]float64, n)

	err = r.Run(workers, func(p apps.Proc) error {
		w := p.PID()
		lo, hi := partition(n, workers, w)
		unmarked := hi - lo
		for k := 0; k < n; k++ {
			p.Compute(unmarked) // the local search, one compare a row
			c := wire.PivotCand{Worker: uint32(w)}
			for i := lo; i < hi; i++ {
				if !marked[i] && math.Abs(m[i][k]) > math.Abs(c.Value) {
					c.Row = uint32(i)
					c.Value = m[i][k]
				}
			}
			cands[w] = c
			p.Barrier()
			if w == 0 { // worker 0 plays arbiter
				p.Compute(workers)
				best, bestAbs := wire.PivotCand{}, 0.0
				for _, c := range cands {
					if abs := math.Abs(c.Value); abs > bestAbs {
						best, bestAbs = c, abs
					}
				}
				if bestAbs < pivotEps {
					singular = true
				} else {
					winner = best
					marked[best.Row] = true
					pivotCol[best.Row] = k
				}
			}
			p.Barrier()
			if singular {
				return ErrSingular
			}
			row, swept := int(winner.Row), hi-lo
			if row >= lo && row < hi {
				unmarked--
				swept--
			}
			sweep(m[lo:hi], k, row-lo, m[row])
			p.Compute(swept * (n + 1 - k) * flopsPerUpdate)
			p.Barrier()
		}
		for i := lo; i < hi; i++ {
			c := pivotCol[i]
			x[c] = m[i][n] / m[i][c]
		}
		p.Compute(hi - lo) // the divisions
		return nil
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}

// Residual returns max_i |A x - b|_i, the correctness metric the tests
// assert on.
func Residual(a [][]float64, b []float64, x []float64) float64 {
	worst := 0.0
	for i := range a {
		s := -b[i]
		for j := range x {
			s += a[i][j] * x[j]
		}
		if r := math.Abs(s); r > worst {
			worst = r
		}
	}
	return worst
}
