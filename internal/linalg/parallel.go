package linalg

import (
	"runtime"
	"sync"
)

// Workers resolves a worker-count option: n when positive, otherwise
// runtime.GOMAXPROCS(0), the parallelism the process may actually use (a
// GOMAXPROCS=1 run or a CPU quota is not oversubscribed the way
// runtime.NumCPU would).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelMul computes a×b using up to workers goroutines, splitting the
// output rows into contiguous blocks. workers <= 0 selects GOMAXPROCS.
// This is the kernel used to project large point blocks through a
// projection matrix; the row split mirrors the per-point data parallelism
// that the paper offloads to the GPU.
func ParallelMul(dst, a, b *Matrix, workers int) (*Matrix, error) {
	workers = Workers(workers)
	if a.Rows < 2*workers || workers == 1 {
		// Serial fast path. Kept free of the goroutine machinery below:
		// the fan-out closures capture dst, which would force it to the
		// heap even when no goroutine is ever launched.
		return Mul(dst, a, b)
	}
	return parallelMul(dst, a, b, workers)
}

func parallelMul(dst, a, b *Matrix, workers int) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, ErrShape
	}
	if dst == nil {
		dst = NewMatrix(a.Rows, b.Cols)
	} else if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return nil, ErrShape
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			mulRangeWith(best, dst, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return dst, nil
}
