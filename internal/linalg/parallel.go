package linalg

import "runtime"

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
