// Package sor implements the paper's second application study: an
// iterative elliptic PDE solver using successive over-relaxation,
// adapted from a hypercube program (paper §4, Figure 8).
//
// The solver iterates a 5-point stencil over a P×P interior grid until
// the solution of Poisson's equation converges. For the parallel
// versions the interior is partitioned into N×N subgrids, one per
// process. On every iteration each process exchanges its subgrid
// boundaries with its four neighbours (FCFS circuits, one per directed
// edge — "the interprocess communication among neighbors corresponds
// naturally to FCFS LNVC's"), updates its subgrid, and reports its local
// convergence status to a monitoring process, which broadcasts
// stop/continue on a BROADCAST circuit.
//
// Computation per iteration is proportional to subgrid area and
// communication to subgrid perimeter, so the computation/communication
// ratio is adjusted by varying N — the knob Figure 8 sweeps.
//
// The message-passing program (RunMPF) and its shared-memory analogue
// (RunShared) are each written once against an apps.Runner. SolveMPF
// and SolveShared run them on a real facility; on apps.Simulated(m)
// they run on the simulated Balance 21000, where each process's
// arithmetic costs m's software floating point, a halo copy m's copy
// cost and a barrier one lock per arrival and wakeup. Figure 8 ("Per
// Iteration Speedup vs. Dimension (N)") plots per-iteration speedup
// relative to the 4-process solver (N=2) — the paper had no sequential
// solver to compare against — so its caller divides a solve's
// simulated seconds by its iterations.
package sor

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/wire"
	"repro/mpf"
)

// ErrDiverged is returned when the iteration exceeds MaxIter without
// meeting Tol.
var ErrDiverged = errors.New("sor: did not converge within MaxIter iterations")

// Problem describes one Dirichlet Poisson problem on the unit square:
// ∇²u = F with u = Boundary on the edge. The grid has P×P interior
// points at spacing h = 1/(P+1).
type Problem struct {
	P        int
	F        func(x, y float64) float64
	Boundary func(x, y float64) float64
	Omega    float64 // relaxation factor in (0, 2)
	Tol      float64 // max |Δu| convergence threshold
	MaxIter  int
}

// DefaultProblem returns the test problem with known analytic solution
// u(x,y) = sin(πx)·sin(πy), for which ∇²u = −2π²·u and u = 0 on the
// boundary.
func DefaultProblem(p int) Problem {
	return Problem{
		P:        p,
		F:        func(x, y float64) float64 { return -2 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(math.Pi*y) },
		Boundary: func(x, y float64) float64 { return 0 },
		Omega:    1.2,
		Tol:      1e-6,
		MaxIter:  20000,
	}
}

// Analytic returns the exact solution of DefaultProblem at (x, y).
func Analytic(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) }

func (pr *Problem) validate() error {
	if pr.P < 1 {
		return fmt.Errorf("sor: grid size %d", pr.P)
	}
	if pr.F == nil || pr.Boundary == nil {
		return errors.New("sor: F and Boundary must be set")
	}
	if pr.Omega <= 0 || pr.Omega >= 2 {
		return fmt.Errorf("sor: omega %g outside (0,2)", pr.Omega)
	}
	if pr.Tol <= 0 || pr.MaxIter < 1 {
		return fmt.Errorf("sor: tol %g, maxIter %d", pr.Tol, pr.MaxIter)
	}
	return nil
}

// h returns the grid spacing.
func (pr *Problem) h() float64 { return 1 / float64(pr.P+1) }

// newGrid allocates the (P+2)×(P+2) grid with boundary values filled in
// and interior zeroed.
func (pr *Problem) newGrid() [][]float64 {
	n := pr.P + 2
	h := pr.h()
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		x := float64(i) * h
		g[i][0] = pr.Boundary(x, 0)
		g[i][n-1] = pr.Boundary(x, 1)
		g[0][i] = pr.Boundary(0, x)
		g[n-1][i] = pr.Boundary(1, x)
	}
	return g
}

// source returns the stencil's constant term h²·F at the interior
// points [rlo, rhi) × [clo, chi), indexed from (rlo, clo). It does not
// change between sweeps, so a solver computes it once for the points it
// owns instead of on every sweep.
func (pr *Problem) source(rlo, rhi, clo, chi int) [][]float64 {
	h := pr.h()
	src := make([][]float64, rhi-rlo)
	for i := range src {
		for j := clo; j < chi; j++ {
			src[i] = append(src[i], h*h*pr.F(float64(rlo+i)*h, float64(j)*h))
		}
	}
	return src
}

// relax is the stencil every solver sweeps: one SOR update of the point
// *u, whose neighbours are up, down, left and right and whose source
// term is s. It returns the larger of |Δu| and maxDelta.
func (pr *Problem) relax(u *float64, up, down, left, right, s, maxDelta float64) float64 {
	delta := pr.Omega * ((up+down+left+right-s)/4 - *u)
	*u += delta
	if d := math.Abs(delta); d > maxDelta {
		return d
	}
	return maxDelta
}

// SolveSequential iterates SOR over the whole grid until convergence and
// returns the grid (with boundary) and the iteration count.
func SolveSequential(pr Problem) ([][]float64, int, error) {
	if err := pr.validate(); err != nil {
		return nil, 0, err
	}
	g := pr.newGrid()
	src := pr.source(1, pr.P+1, 1, pr.P+1)
	for iter := 1; iter <= pr.MaxIter; iter++ {
		maxDelta := 0.0
		for i := 1; i <= pr.P; i++ {
			for j := 1; j <= pr.P; j++ {
				maxDelta = pr.relax(&g[i][j], g[i-1][j], g[i+1][j], g[i][j-1], g[i][j+1], src[i-1][j-1], maxDelta)
			}
		}
		if maxDelta < pr.Tol {
			return g, iter, nil
		}
	}
	return nil, pr.MaxIter, ErrDiverged
}

// blockRange returns block b's interior index range [lo, hi) (1-based)
// for P points over n blocks.
func blockRange(p, n, b int) (lo, hi int) {
	return b*p/n + 1, (b+1)*p/n + 1
}

// Circuit names. Halo circuits are per directed edge.
const (
	statusCircuit = "sor-status" // workers -> monitor, FCFS
	ctlCircuit    = "sor-ctl"    // monitor -> workers, broadcast
	resultCircuit = "sor-result" // workers -> monitor, FCFS
)

func haloCircuit(from, to int) string { return fmt.Sprintf("sor-halo-%d-%d", from, to) }

// ctl message values.
const (
	ctlContinue = 0
	ctlStop     = 1
	ctlAbort    = 2
)

// flopsPerPoint is the stencil cost per grid point per iteration: four
// adds, the source term, the relaxation multiply and the delta update.
const flopsPerPoint = 6

// SolveMPF solves pr on an N×N process grid plus one monitoring process,
// all communicating through fac (which must allow N²+1 processes). It
// returns the assembled grid and the iteration count.
func SolveMPF(fac *mpf.Facility, n int, pr Problem) ([][]float64, int, error) {
	return RunMPF(apps.Native(fac), n, pr)
}

// RunMPF is the message-passing program: the monitor and the N×N
// workers on r.
func RunMPF(r apps.Runner, n int, pr Problem) ([][]float64, int, error) {
	if err := pr.validate(); err != nil {
		return nil, 0, err
	}
	if n < 1 {
		return nil, 0, fmt.Errorf("sor: process dimension %d", n)
	}
	if n > pr.P {
		return nil, 0, fmt.Errorf("sor: %d×%d processes for %d×%d grid", n, n, pr.P, pr.P)
	}
	workers := n * n
	result := pr.newGrid()
	iters := 0

	err := r.Run(workers+1, func(p apps.Proc) error {
		if p.PID() == workers {
			it, err := monitor(p, workers, pr, result)
			iters = it
			return err
		}
		return sorWorker(p, n, pr)
	})
	if err != nil {
		return nil, iters, err
	}
	return result, iters, nil
}

// monitor aggregates convergence status each iteration and assembles the
// final grid.
func monitor(p apps.Proc, workers int, pr Problem, result [][]float64) (int, error) {
	status, err := p.OpenReceive(statusCircuit, mpf.FCFS)
	if err != nil {
		return 0, err
	}
	defer status.Close()
	ctl, err := p.OpenSend(ctlCircuit)
	if err != nil {
		return 0, err
	}
	defer ctl.Close()
	res, err := p.OpenReceive(resultCircuit, mpf.FCFS)
	if err != nil {
		return 0, err
	}
	defer res.Close()

	buf := make([]byte, wire.Float64Size)
	iter := 0
	converged := false
	for iter = 1; iter <= pr.MaxIter; iter++ {
		maxDelta := 0.0
		for w := 0; w < workers; w++ {
			if _, err := status.Receive(buf); err != nil {
				return iter, err
			}
			d, _, err := wire.Float64(buf)
			if err != nil {
				return iter, err
			}
			p.Compute(1) // the max reduction
			if d > maxDelta {
				maxDelta = d
			}
		}
		verdict := byte(ctlContinue)
		if maxDelta < pr.Tol {
			verdict = ctlStop
			converged = true
		} else if iter == pr.MaxIter {
			verdict = ctlAbort
		}
		if err := ctl.Send([]byte{verdict}); err != nil {
			return iter, err
		}
		if verdict != ctlContinue {
			break
		}
	}
	if !converged {
		return iter, ErrDiverged
	}

	// Collect subgrids: each message is (rlo, rhi, clo, chi) then the
	// row-major block.
	hdr := 4 * wire.Uint32Size
	blockBuf := make([]byte, hdr+pr.P*pr.P*wire.Float64Size)
	for w := 0; w < workers; w++ {
		m, err := res.Receive(blockBuf)
		if err != nil {
			return iter, err
		}
		b := blockBuf[:m]
		var rlo, rhi, clo, chi uint32
		if rlo, b, err = wire.Uint32(b); err != nil {
			return iter, err
		}
		if rhi, b, err = wire.Uint32(b); err != nil {
			return iter, err
		}
		if clo, b, err = wire.Uint32(b); err != nil {
			return iter, err
		}
		if chi, b, err = wire.Uint32(b); err != nil {
			return iter, err
		}
		width := int(chi - clo)
		row := make([]float64, width)
		for i := int(rlo); i < int(rhi); i++ {
			if b, err = wire.Float64s(b, row); err != nil {
				return iter, err
			}
			copy(result[i][clo:chi], row)
		}
	}
	return iter, nil
}

// sorWorker owns one subgrid of the N×N decomposition.
func sorWorker(p apps.Proc, n int, pr Problem) error {
	w := p.PID()
	bi, bj := w/n, w%n
	rlo, rhi := blockRange(pr.P, n, bi)
	clo, chi := blockRange(pr.P, n, bj)
	height, width := rhi-rlo, chi-clo

	// Local grid with halo: indices [0..height+1][0..width+1] map to
	// global [rlo-1..rhi][clo-1..chi].
	local := make([][]float64, height+2)
	for i := range local {
		local[i] = make([]float64, width+2)
	}
	src := pr.source(rlo, rhi, clo, chi)
	// Physical boundary values (for blocks on the domain edge).
	h := pr.h()
	for li := 0; li < height+2; li++ {
		gi := rlo - 1 + li
		for lj := 0; lj < width+2; lj++ {
			gj := clo - 1 + lj
			if gi == 0 || gi == pr.P+1 || gj == 0 || gj == pr.P+1 {
				local[li][lj] = pr.Boundary(float64(gi)*h, float64(gj)*h)
			}
		}
	}

	// Neighbour process ids; -1 where the physical boundary lies.
	north, south, west, east := -1, -1, -1, -1
	if bi > 0 {
		north = (bi-1)*n + bj
	}
	if bi < n-1 {
		south = (bi+1)*n + bj
	}
	if bj > 0 {
		west = bi*n + (bj - 1)
	}
	if bj < n-1 {
		east = bi*n + (bj + 1)
	}

	type edge struct {
		neighbor  int
		send      apps.SendConn
		recv      apps.RecvConn
		sendBuf   []byte
		recvBuf   []byte
		recvFlt   []float64
		extract   func() []float64 // my boundary values to ship
		injectRow func([]float64)  // write neighbour's values into my halo
	}
	var edges []*edge
	addEdge := func(neighbor int, extract func() []float64, inject func([]float64), length int) error {
		if neighbor < 0 {
			return nil
		}
		e := &edge{
			neighbor: neighbor,
			sendBuf:  make([]byte, 0, length*wire.Float64Size),
			recvBuf:  make([]byte, length*wire.Float64Size),
			recvFlt:  make([]float64, length),
			extract:  extract, injectRow: inject,
		}
		var err error
		if e.send, err = p.OpenSend(haloCircuit(w, neighbor)); err != nil {
			return err
		}
		if e.recv, err = p.OpenReceive(haloCircuit(neighbor, w), mpf.FCFS); err != nil {
			return err
		}
		edges = append(edges, e)
		return nil
	}

	rowOf := func(li int) func() []float64 {
		return func() []float64 { return local[li][1 : width+1] }
	}
	colOf := func(lj int) func() []float64 {
		return func() []float64 {
			out := make([]float64, height)
			for i := 0; i < height; i++ {
				out[i] = local[i+1][lj]
			}
			return out
		}
	}
	if err := addEdge(north, rowOf(1), func(v []float64) { copy(local[0][1:width+1], v) }, width); err != nil {
		return err
	}
	if err := addEdge(south, rowOf(height), func(v []float64) { copy(local[height+1][1:width+1], v) }, width); err != nil {
		return err
	}
	if err := addEdge(west, colOf(1), func(v []float64) {
		for i := 0; i < height; i++ {
			local[i+1][0] = v[i]
		}
	}, height); err != nil {
		return err
	}
	if err := addEdge(east, colOf(width), func(v []float64) {
		for i := 0; i < height; i++ {
			local[i+1][width+1] = v[i]
		}
	}, height); err != nil {
		return err
	}

	status, err := p.OpenSend(statusCircuit)
	if err != nil {
		return err
	}
	defer status.Close()
	ctl, err := p.OpenReceive(ctlCircuit, mpf.Broadcast)
	if err != nil {
		return err
	}
	defer ctl.Close()
	res, err := p.OpenSend(resultCircuit)
	if err != nil {
		return err
	}
	defer res.Close()
	closeEdges := func() {
		for _, e := range edges {
			e.send.Close()
			e.recv.Close()
		}
	}
	defer closeEdges()

	statusBuf := make([]byte, 0, wire.Float64Size)
	ctlBuf := make([]byte, 1)
	for {
		// Exchange halos: ship my boundaries, then absorb neighbours'.
		for _, e := range edges {
			if err := e.send.Send(wire.AppendFloat64s(e.sendBuf[:0], e.extract())); err != nil {
				return err
			}
		}
		for _, e := range edges {
			m, err := e.recv.Receive(e.recvBuf)
			if err != nil {
				return err
			}
			if m != len(e.recvBuf) {
				return fmt.Errorf("sor: halo message %d bytes, want %d", m, len(e.recvBuf))
			}
			if _, err := wire.Float64s(e.recvBuf, e.recvFlt); err != nil {
				return err
			}
			e.injectRow(e.recvFlt)
		}

		// SOR sweep over the subgrid.
		maxDelta := 0.0
		for li := 1; li <= height; li++ {
			for lj := 1; lj <= width; lj++ {
				maxDelta = pr.relax(&local[li][lj], local[li-1][lj], local[li+1][lj], local[li][lj-1], local[li][lj+1], src[li-1][lj-1], maxDelta)
			}
		}
		p.Compute(height * width * flopsPerPoint)

		// Report status; await the verdict.
		if err := status.Send(wire.AppendFloat64(statusBuf[:0], maxDelta)); err != nil {
			return err
		}
		if _, err := ctl.Receive(ctlBuf); err != nil {
			return err
		}
		if ctlBuf[0] == ctlAbort {
			return ErrDiverged
		}
		if ctlBuf[0] == ctlStop {
			break
		}
	}

	// Ship the subgrid to the monitor.
	out := make([]byte, 0, 4*wire.Uint32Size+height*width*wire.Float64Size)
	out = wire.AppendUint32(out, uint32(rlo))
	out = wire.AppendUint32(out, uint32(rhi))
	out = wire.AppendUint32(out, uint32(clo))
	out = wire.AppendUint32(out, uint32(chi))
	for li := 1; li <= height; li++ {
		out = wire.AppendFloat64s(out, local[li][1:width+1])
	}
	return res.Send(out)
}

// SolveShared solves pr with RunShared on fac, which must allow N²
// processes.
func SolveShared(fac *mpf.Facility, n int, pr Problem) ([][]float64, int, error) {
	return RunShared(apps.Native(fac), n, pr)
}

// RunShared is the shared-memory analogue of RunMPF: the same N×N block
// decomposition over one shared grid, with barriers replacing halo
// messages and the monitor. It returns the grid and the iteration
// count.
func RunShared(r apps.Runner, n int, pr Problem) ([][]float64, int, error) {
	if err := pr.validate(); err != nil {
		return nil, 0, err
	}
	if n < 1 || n > pr.P {
		return nil, 0, fmt.Errorf("sor: process dimension %d for %d×%d grid", n, pr.P, pr.P)
	}
	workers := n * n
	g := pr.newGrid()
	deltas := make([]float64, workers)
	stop := false
	iters := 0

	err := r.Run(workers, func(p apps.Proc) error {
		w := p.PID()
		bi, bj := w/n, w%n
		rlo, rhi := blockRange(pr.P, n, bi)
		clo, chi := blockRange(pr.P, n, bj)
		width, height := chi-clo, rhi-rlo
		// Private halo copies. Reading a neighbour's cells while it
		// updates them would be both a data race and non-reproducible;
		// the halo copy phase (all reads) and the sweep phase (writes
		// only to owned cells) are separated by barriers, mirroring the
		// message version's exchange-then-sweep structure.
		haloN := make([]float64, width)
		haloS := make([]float64, width)
		haloW := make([]float64, height)
		haloE := make([]float64, height)
		// Copy is charged for the halo cells a neighbouring block owns,
		// not for the fixed boundary, which never changes.
		shared := width*inner(bi, n) + height*inner(bj, n)
		src := pr.source(rlo, rhi, clo, chi)
		for iter := 1; ; iter++ {
			for j := 0; j < width; j++ {
				haloN[j] = g[rlo-1][clo+j]
				haloS[j] = g[rhi][clo+j]
			}
			for i := 0; i < height; i++ {
				haloW[i] = g[rlo+i][clo-1]
				haloE[i] = g[rlo+i][chi]
			}
			p.Copy(shared * wire.Float64Size)
			p.Barrier()
			maxDelta := 0.0
			for i := rlo; i < rhi; i++ {
				for j := clo; j < chi; j++ {
					up := haloN[j-clo]
					if i > rlo {
						up = g[i-1][j]
					}
					down := haloS[j-clo]
					if i < rhi-1 {
						down = g[i+1][j]
					}
					left := haloW[i-rlo]
					if j > clo {
						left = g[i][j-1]
					}
					right := haloE[i-rlo]
					if j < chi-1 {
						right = g[i][j+1]
					}
					maxDelta = pr.relax(&g[i][j], up, down, left, right, src[i-rlo][j-clo], maxDelta)
				}
			}
			p.Compute(height * width * flopsPerPoint)
			deltas[w] = maxDelta
			p.Barrier()
			if w == 0 {
				p.Compute(workers) // the max reduction
				global := 0.0
				for _, d := range deltas {
					if d > global {
						global = d
					}
				}
				stop = global < pr.Tol || iter >= pr.MaxIter
				iters = iter
			}
			p.Barrier()
			if stop {
				if iter >= pr.MaxIter && deltas[w] >= pr.Tol {
					return ErrDiverged
				}
				return nil
			}
		}
	})
	if err != nil {
		return nil, iters, err
	}
	return g, iters, nil
}

// inner returns how many of the two ends of block b of n, along one
// axis, face another block rather than the fixed boundary.
func inner(b, n int) (sides int) {
	if b > 0 {
		sides++
	}
	if b < n-1 {
		sides++
	}
	return sides
}

// MaxError returns max |g - Analytic| over the interior, the
// discretization-accuracy metric for DefaultProblem.
func MaxError(pr Problem, g [][]float64) float64 {
	h := pr.h()
	worst := 0.0
	for i := 1; i <= pr.P; i++ {
		for j := 1; j <= pr.P; j++ {
			if d := math.Abs(g[i][j] - Analytic(float64(i)*h, float64(j)*h)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// GridDiff returns max |a - b| over the interior of two solution grids.
func GridDiff(pr Problem, a, b [][]float64) float64 {
	worst := 0.0
	for i := 1; i <= pr.P; i++ {
		for j := 1; j <= pr.P; j++ {
			if d := math.Abs(a[i][j] - b[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}
