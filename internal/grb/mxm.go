package grb

import (
	"context"
	"fmt"
	"sort"

	"kronbip/internal/exec"
	"kronbip/internal/obs"
	"kronbip/internal/obs/timeline"
)

// kernelPollStride bounds how many output rows a kernel worker may compute
// after a cancellation before it notices and aborts.
const kernelPollStride = 256

// Kernel metrics.  Flop counts are derived from the sparsity structure
// outside the inner loops (one O(nnz) pass per call while enabled), so
// the Gustavson hot loops carry no instrumentation at all.
var (
	mMxMFlops  = obs.Default.Counter("grb.mxm.flops")
	mMxVFlops  = obs.Default.Counter("grb.mxv.flops")
	mKronNNZ   = obs.Default.Counter("grb.kron.entries")
	mMxMCalls  = obs.Default.Counter("grb.mxm.calls")
	mMxVCalls  = obs.Default.Counter("grb.mxv.calls")
	mKronCalls = obs.Default.Counter("grb.kron.calls")
)

// mxmFlops counts the multiply-add pairs of C = A·B: for every stored
// A(i,k), one per stored entry of B's row k.
func mxmFlops[T Number](a, b *Matrix[T]) int64 {
	var flops int64
	for _, col := range a.colIdx {
		flops += int64(b.rowPtr[col+1] - b.rowPtr[col])
	}
	return flops
}

// MxM computes C = A·B over the conventional (+,*) semiring using
// Gustavson's row-wise algorithm with a dense accumulator.
func MxM[T Number](a, b *Matrix[T]) (*Matrix[T], error) {
	return MxMSemiring(PlusTimes[T](), a, b)
}

// MxMSemiring computes C = A·B over an arbitrary semiring.  The additive
// identity plays the role of the implicit zero: accumulated entries equal to
// it are still stored (value-based pruning is a separate concern; see Prune).
func MxMSemiring[T Number](sr Semiring[T], a, b *Matrix[T]) (*Matrix[T], error) {
	if a.nc != b.nr {
		return nil, fmt.Errorf("grb: MxM dimension mismatch: %dx%d times %dx%d", a.nr, a.nc, b.nr, b.nc)
	}
	rowPtr := make([]int, a.nr+1)
	var colIdx []int
	var val []T
	acc := make([]T, b.nc)
	mark := make([]int, b.nc) // mark[j] == i+1 means column j touched for row i
	touched := make([]int, 0, 64)
	for i := 0; i < a.nr; i++ {
		touched = touched[:0]
		for ka := a.rowPtr[i]; ka < a.rowPtr[i+1]; ka++ {
			col := a.colIdx[ka]
			av := a.val[ka]
			for kb := b.rowPtr[col]; kb < b.rowPtr[col+1]; kb++ {
				j := b.colIdx[kb]
				p := sr.Mul(av, b.val[kb])
				if mark[j] != i+1 {
					mark[j] = i + 1
					acc[j] = sr.Add.Op(sr.Add.Identity, p)
					touched = append(touched, j)
				} else {
					acc[j] = sr.Add.Op(acc[j], p)
				}
			}
		}
		sortInts(touched)
		for _, j := range touched {
			colIdx = append(colIdx, j)
			val = append(val, acc[j])
		}
		rowPtr[i+1] = len(colIdx)
	}
	return &Matrix[T]{nr: a.nr, nc: b.nc, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// MxMParallel computes C = A·B over (+,*) with rows partitioned across
// workers.  It runs a symbolic pass to size each stripe, then a numeric pass
// that writes rows directly into their final positions; no per-worker
// buffers are stitched afterwards.  workers <= 0 selects GOMAXPROCS.
func MxMParallel[T Number](a, b *Matrix[T], workers int) (*Matrix[T], error) {
	return MxMParallelContext(context.Background(), a, b, workers)
}

// MxMParallelContext is MxMParallel on the shared exec engine: both the
// symbolic and numeric passes run as cancellable row-stripe workers with
// pooled marker scratch, aborting with ctx.Err() within kernelPollStride
// rows of a cancellation.
func MxMParallelContext[T Number](ctx context.Context, a, b *Matrix[T], workers int) (*Matrix[T], error) {
	if a.nc != b.nr {
		return nil, fmt.Errorf("grb: MxM dimension mismatch: %dx%d times %dx%d", a.nr, a.nc, b.nr, b.nc)
	}
	if obs.Enabled() {
		var done func()
		ctx, done = obs.Span(ctx, "grb.mxm")
		defer done()
		mMxMCalls.Inc()
		mMxMFlops.Add(mxmFlops(a, b))
	}
	if timeline.Enabled() {
		// Kernel events are duration-only (always OK): errors surface on
		// the caller's shard/rank event, not per kernel call.
		defer timeline.Begin(timeline.CatKernel, "grb.mxm", 0)(nil)
	}
	if exec.Workers(workers, a.nr) <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return MxM(a, b)
	}

	// Symbolic pass: per-row output nnz.
	rowNNZ := make([]int, a.nr)
	err := exec.Ranges(ctx, a.nr, workers, func(ctx context.Context, _, lo, hi int) error {
		poll := exec.NewPoller(ctx, kernelPollStride)
		mark := exec.GetInts(b.nc)
		defer exec.PutInts(mark)
		for i := lo; i < hi; i++ {
			if poll.Cancelled() {
				return poll.Err()
			}
			cnt := 0
			for ka := a.rowPtr[i]; ka < a.rowPtr[i+1]; ka++ {
				col := a.colIdx[ka]
				for kb := b.rowPtr[col]; kb < b.rowPtr[col+1]; kb++ {
					j := b.colIdx[kb]
					if mark[j] != i+1 {
						mark[j] = i + 1
						cnt++
					}
				}
			}
			rowNNZ[i] = cnt
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	rowPtr := make([]int, a.nr+1)
	for i, n := range rowNNZ {
		rowPtr[i+1] = rowPtr[i] + n
	}
	nnz := rowPtr[a.nr]
	colIdx := make([]int, nnz)
	val := make([]T, nnz)

	// Numeric pass.
	err = exec.Ranges(ctx, a.nr, workers, func(ctx context.Context, _, lo, hi int) error {
		poll := exec.NewPoller(ctx, kernelPollStride)
		acc := make([]T, b.nc)
		mark := exec.GetInts(b.nc)
		defer exec.PutInts(mark)
		touched := make([]int, 0, 64)
		for i := lo; i < hi; i++ {
			if poll.Cancelled() {
				return poll.Err()
			}
			touched = touched[:0]
			for ka := a.rowPtr[i]; ka < a.rowPtr[i+1]; ka++ {
				col := a.colIdx[ka]
				av := a.val[ka]
				for kb := b.rowPtr[col]; kb < b.rowPtr[col+1]; kb++ {
					j := b.colIdx[kb]
					p := av * b.val[kb]
					if mark[j] != i+1 {
						mark[j] = i + 1
						acc[j] = p
						touched = append(touched, j)
					} else {
						acc[j] += p
					}
				}
			}
			sortInts(touched)
			base := rowPtr[i]
			for t, j := range touched {
				colIdx[base+t] = j
				val[base+t] = acc[j]
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Matrix[T]{nr: a.nr, nc: b.nc, rowPtr: rowPtr, colIdx: colIdx, val: val}, nil
}

// sortInts is an insertion sort for the short "touched columns" lists that
// arise in Gustavson accumulation; it beats sort.Ints below ~100 elements
// and avoids the interface overhead in the hot loop.
func sortInts(s []int) {
	if len(s) > 64 {
		sort.Ints(s)
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}
