package server

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// Filesystem fault injection: an FS wrapper that forces the failure modes
// a real disk produces at the worst times — short (torn) writes, fsync
// errors, directory-fsync errors, and ENOSPC — so tests can prove the
// durability layer surfaces typed errors instead of silently losing data.
// Deterministic: faults are armed explicitly (count-down or byte-budget),
// never sampled. Follows internal/mpi/fault.go's shape: the injector is
// production-compiled but only ever installed by tests and the chaos
// harness.

// ErrInjected marks every fault this wrapper produces; tests distinguish
// injected failures from real disk trouble with errors.Is.
var ErrInjected = errors.New("fsio: injected fault")

// FaultFS wraps an FS with armable failures. The zero value (with Inner
// set) injects nothing.
type FaultFS struct {
	Inner FS

	mu sync.Mutex
	// writeBudget, when armed (>= 0), is the number of payload bytes
	// remaining before writes fail with an injected ENOSPC. A write that
	// crosses the boundary is torn: the in-budget prefix is written, the
	// rest refused — exactly what a full disk does.
	writeBudget   int64
	budgetArmed   bool
	tearNextWrite bool
	failSyncs     int // remaining Syncs to fail (sticky while > 0, -1 = all)
	failRenames   int

	// Counters for assertions.
	Writes   atomic.Int64
	Syncs    atomic.Int64
	SyncDirs atomic.Int64
	Injected atomic.Int64
}

// SetWriteBudget arms ENOSPC after n more payload bytes (n=0 fails the
// next write outright). A negative n disarms.
func (f *FaultFS) SetWriteBudget(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget, f.budgetArmed = n, n >= 0
}

// TearNextWrite makes the next write a short write: half the payload
// lands, then an injected error — a torn record without a real crash.
func (f *FaultFS) TearNextWrite() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.tearNextWrite = true
}

// FailSyncs makes the next n Sync calls fail (-1 = every one).
func (f *FaultFS) FailSyncs(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSyncs = n
}

// FailRenames makes the next n Rename calls fail (-1 = every one).
func (f *FaultFS) FailRenames(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failRenames = n
}

func (f *FaultFS) injected(op string) error {
	f.Injected.Add(1)
	return fmt.Errorf("fsio: %s: %w", op, ErrInjected)
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	inner, err := f.Inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) { return f.Inner.ReadFile(name) }

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	fail := f.failRenames != 0
	if f.failRenames > 0 {
		f.failRenames--
	}
	f.mu.Unlock()
	if fail {
		return f.injected("rename " + newpath)
	}
	return f.Inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error                     { return f.Inner.Remove(name) }
func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error { return f.Inner.MkdirAll(path, perm) }
func (f *FaultFS) ReadDirNames(dir string) ([]string, error)    { return f.Inner.ReadDirNames(dir) }
func (f *FaultFS) Truncate(name string, size int64) error       { return f.Inner.Truncate(name, size) }

func (f *FaultFS) SyncDir(dir string) error {
	f.SyncDirs.Add(1)
	return f.Inner.SyncDir(dir)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	ff.fs.Writes.Add(1)
	ff.fs.mu.Lock()
	tear := ff.fs.tearNextWrite
	ff.fs.tearNextWrite = false
	var allow int64 = int64(len(p))
	enospc := false
	if ff.fs.budgetArmed {
		if ff.fs.writeBudget < allow {
			allow = ff.fs.writeBudget
			enospc = true
		}
		ff.fs.writeBudget -= allow
	}
	ff.fs.mu.Unlock()

	if tear {
		half := len(p) / 2
		n, err := ff.inner.Write(p[:half])
		if err != nil {
			return n, err
		}
		return n, ff.fs.injected("short write")
	}
	if enospc {
		n, err := ff.inner.Write(p[:allow])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("fsio: write: no space left on device: %w", ErrInjected)
	}
	return ff.inner.Write(p)
}

func (ff *faultFile) Sync() error {
	ff.fs.Syncs.Add(1)
	ff.fs.mu.Lock()
	fail := ff.fs.failSyncs != 0
	if ff.fs.failSyncs > 0 {
		ff.fs.failSyncs--
	}
	ff.fs.mu.Unlock()
	if fail {
		return ff.fs.injected("fsync")
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }
