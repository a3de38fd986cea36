package mpi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"keybin2/internal/wire"
)

// TCP transport: a full mesh of TCP connections between ranks. Rank i
// accepts connections from ranks j < i and dials ranks j > i, which yields
// exactly one connection per pair. Frames are length-prefixed:
//
//	[from:int32][tag:int32][len:uint32][payload]
//
// A reader goroutine per peer feeds the same mailbox used by the in-process
// transport, so all collectives work unchanged.
//
// The wire is not trusted: every frame's `from` field must match the
// hello-identified rank of the connection it arrived on, tags must be
// non-negative, and the length prefix is capped by TCPOptions.MaxFrame so a
// corrupt peer can neither forge sources, crash consumers with out-of-range
// ranks, nor trigger a multi-GiB allocation. A violating peer is marked
// failed and its connection closed.

// DefaultMaxFrame caps a frame's payload length when TCPOptions.MaxFrame is
// unset. KeyBin2 frames are histogram-sized (kilobytes); 256 MiB leaves
// three orders of magnitude of headroom while bounding a corrupt length
// prefix's allocation.
const DefaultMaxFrame = 256 << 20

// TCPOptions tunes the TCP transport's robustness knobs. The zero value
// gives blocking receives, unbounded writes, and DefaultMaxFrame.
type TCPOptions struct {
	// MaxFrame is the largest accepted/sent payload in bytes; <= 0 means
	// DefaultMaxFrame.
	MaxFrame int
	// RecvTimeout bounds each Recv (and collective step) as a backstop for
	// failures the transport cannot observe; 0 blocks forever.
	RecvTimeout time.Duration
	// WriteTimeout sets a per-write deadline so a peer that stops reading
	// cannot stall senders forever; 0 means no deadline.
	WriteTimeout time.Duration
}

func (o TCPOptions) maxFrame() int {
	if o.MaxFrame <= 0 {
		return DefaultMaxFrame
	}
	return o.MaxFrame
}

type tcpPeer struct {
	mu   sync.Mutex // serializes writes to this peer only
	conn net.Conn   // nil for self
}

type tcpTransport struct {
	rank         int
	maxFrame     int
	writeTimeout time.Duration
	peers        []tcpPeer // indexed by peer rank
	box          *mailbox
}

func (t *tcpTransport) send(to int, msg message) error {
	if to == t.rank {
		return t.box.put(msg)
	}
	if len(msg.payload) > t.maxFrame {
		return fmt.Errorf("mpi: send to rank %d: payload %d bytes exceeds max frame %d", to, len(msg.payload), t.maxFrame)
	}
	p := &t.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	conn := p.conn
	if conn == nil {
		return fmt.Errorf("mpi: no connection to rank %d", to)
	}
	if t.box.failed(to) {
		return fmt.Errorf("mpi: send to rank %d: %w", to, RankFailedError{Rank: to})
	}
	var hdr [12]byte
	hw := wire.Writer{Buf: hdr[:0]}
	hw.U32(uint32(int32(msg.from)))
	hw.U32(uint32(int32(msg.tag)))
	hw.U32(uint32(len(msg.payload)))
	if t.writeTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.writeTimeout))
	}
	if _, err := conn.Write(hw.Buf); err != nil {
		t.markDead(to)
		return fmt.Errorf("mpi: send header to rank %d: %v: %w", to, err, RankFailedError{Rank: to})
	}
	if len(msg.payload) > 0 {
		if _, err := conn.Write(msg.payload); err != nil {
			t.markDead(to)
			return fmt.Errorf("mpi: send payload to rank %d: %v: %w", to, err, RankFailedError{Rank: to})
		}
	}
	return nil
}

// markDead fails a peer rank and closes its connection, waking any Recv
// that depends on it and unblocking any writer stalled on the conn.
// Connections are immutable after mesh setup, so no lock is needed here —
// taking peers[peer].mu would deadlock against a sender blocked in Write.
func (t *tcpTransport) markDead(peer int) {
	t.box.fail(peer)
	if c := t.peers[peer].conn; c != nil {
		c.Close()
	}
}

// abort closes every connection so peers observe EOF and mark this rank
// dead — the transport-level equivalent of process death.
func (t *tcpTransport) abort(int) {
	for i := range t.peers {
		if c := t.peers[i].conn; c != nil {
			c.Close()
		}
	}
}

// readLoop consumes frames from the connection hello-identified as `peer`.
// Any protocol violation — forged source, negative tag, oversized length —
// or read error evicts the peer.
func (t *tcpTransport) readLoop(peer int, conn net.Conn) {
	hdr := make([]byte, 12)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.markDead(peer) // peer closed/died; dependent Recvs fail fast
			return
		}
		r := wire.NewReader("mpi: frame header", hdr)
		from, tag, n := int(int32(r.U32())), int(int32(r.U32())), r.U32()
		if from != peer || tag < 0 || uint64(n) > uint64(t.maxFrame) {
			t.markDead(peer)
			return
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.markDead(peer)
			return
		}
		if t.box.put(message{from: from, tag: tag, payload: payload}) != nil {
			return
		}
	}
}

// DialTCP joins a TCP world with default options. addrs lists the listen
// address of every rank in rank order; rank selects this process's
// identity. The call blocks until the full mesh is established or timeout
// elapses. The returned cleanup tears down connections and unblocks pending
// receives.
func DialTCP(addrs []string, rank int, timeout time.Duration) (*Comm, func(), error) {
	return DialTCPOpts(addrs, rank, timeout, TCPOptions{})
}

// DialTCPOpts is DialTCP with explicit transport options.
func DialTCPOpts(addrs []string, rank int, timeout time.Duration, opts TCPOptions) (*Comm, func(), error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		return nil, nil, fmt.Errorf("mpi: rank %d out of range for %d addrs", rank, size)
	}
	var ln net.Listener
	if size > 1 {
		var err error
		ln, err = net.Listen("tcp", addrs[rank])
		if err != nil {
			return nil, nil, fmt.Errorf("mpi: rank %d listen %s: %w", rank, addrs[rank], err)
		}
	}
	return DialTCPWithListener(addrs, rank, ln, timeout, opts)
}

// DialTCPWithListener joins a TCP world accepting on a pre-bound listener
// (from FreeLocalListeners, or any listener matching addrs[rank]). Keeping
// the listener open from reservation to dial closes the port-stealing
// window that FreeLocalAddrs leaves. ln may be nil for a single-rank world;
// it is always owned (and eventually closed) by this call.
func DialTCPWithListener(addrs []string, rank int, ln net.Listener, timeout time.Duration, opts TCPOptions) (*Comm, func(), error) {
	size := len(addrs)
	if rank < 0 || rank >= size {
		if ln != nil {
			ln.Close()
		}
		return nil, nil, fmt.Errorf("mpi: rank %d out of range for %d addrs", rank, size)
	}
	for i, a := range addrs {
		if i == rank {
			continue
		}
		if _, err := net.ResolveTCPAddr("tcp", a); err != nil {
			if ln != nil {
				ln.Close()
			}
			return nil, nil, fmt.Errorf("mpi: rank %d addr %q: %w", i, a, err)
		}
	}
	t := &tcpTransport{
		rank:         rank,
		maxFrame:     opts.maxFrame(),
		writeTimeout: opts.WriteTimeout,
		peers:        make([]tcpPeer, size),
		box:          newMailbox(),
	}
	comm := &Comm{rank: rank, size: size, out: t, box: t.box, stats: newStats(size), recvTimeout: opts.RecvTimeout}

	cleanup := func() {
		t.box.close()
		t.abort(rank)
	}

	if size == 1 {
		if ln != nil {
			ln.Close()
		}
		return comm, cleanup, nil
	}
	if ln == nil {
		return nil, nil, fmt.Errorf("mpi: rank %d: nil listener for world size %d", rank, size)
	}

	deadline := time.Now().Add(timeout)
	var wg sync.WaitGroup
	errCh := make(chan error, size)
	done := make(chan struct{})
	var failOnce sync.Once
	// failFast records the error and aborts the sibling setup goroutine:
	// closing the listener unblocks a pending Accept, and `done` stops the
	// dial retry loop, so setup fails as soon as the first error appears
	// rather than after the full timeout.
	failFast := func(err error) {
		errCh <- err
		failOnce.Do(func() {
			close(done)
			ln.Close()
		})
	}

	// Accept from lower ranks. Each peer identifies itself with a 4-byte
	// hello frame carrying its rank.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for accepted := 0; accepted < rank; accepted++ {
			if dl, ok := ln.(*net.TCPListener); ok {
				dl.SetDeadline(deadline)
			}
			conn, err := ln.Accept()
			if err != nil {
				failFast(fmt.Errorf("mpi: rank %d accept: %w", rank, err))
				return
			}
			conn.SetReadDeadline(deadline)
			var hello [4]byte
			if _, err := io.ReadFull(conn, hello[:]); err != nil {
				conn.Close()
				failFast(fmt.Errorf("mpi: rank %d hello: %w", rank, err))
				return
			}
			conn.SetReadDeadline(time.Time{})
			r := wire.NewReader("mpi: hello", hello[:])
			peer := int(int32(r.U32()))
			if peer < 0 || peer >= rank || t.peers[peer].conn != nil {
				conn.Close()
				failFast(fmt.Errorf("mpi: rank %d: invalid hello rank %d", rank, peer))
				return
			}
			t.peers[peer].conn = conn
		}
	}()

	// Dial higher ranks, retrying until the peer's listener is up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for peer := rank + 1; peer < size; peer++ {
			var conn net.Conn
			var err error
			for {
				conn, err = net.DialTimeout("tcp", addrs[peer], time.Second)
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					failFast(fmt.Errorf("mpi: rank %d dial rank %d (%s): %w", rank, peer, addrs[peer], err))
					return
				}
				select {
				case <-done:
					return // setup already failed elsewhere; stop retrying
				case <-time.After(20 * time.Millisecond):
				}
			}
			hello := wire.Writer{}
			hello.U32(uint32(int32(rank)))
			if _, err := conn.Write(hello.Buf); err != nil {
				conn.Close()
				failFast(fmt.Errorf("mpi: rank %d hello to %d: %w", rank, peer, err))
				return
			}
			t.peers[peer].conn = conn
		}
	}()

	wg.Wait()
	ln.Close() // mesh complete (or failed); no more accepts
	close(errCh)
	var errs []error
	for err := range errCh {
		errs = append(errs, err)
	}
	if len(errs) > 0 {
		cleanup()
		return nil, nil, errors.Join(errs...)
	}
	for peer := range t.peers {
		if peer != rank && t.peers[peer].conn != nil {
			go t.readLoop(peer, t.peers[peer].conn)
		}
	}
	return comm, cleanup, nil
}

// RunTCP launches a full TCP world inside one process: every rank gets its
// own goroutine, listener, and mesh connections. It exists so examples and
// tests can exercise the real network path; production deployments call
// DialTCP once per process instead.
func RunTCP(addrs []string, timeout time.Duration, fn func(c *Comm) error) error {
	return runTCP(addrs, nil, timeout, TCPOptions{}, fn)
}

// RunTCPListeners is RunTCP over pre-bound listeners (one per rank, from
// FreeLocalListeners), which avoids re-binding reserved ports and thus the
// race where another process steals a port between reservation and dial.
func RunTCPListeners(lns []net.Listener, timeout time.Duration, opts TCPOptions, fn func(c *Comm) error) error {
	addrs := make([]string, len(lns))
	for i, ln := range lns {
		addrs[i] = ln.Addr().String()
	}
	return runTCP(addrs, lns, timeout, opts, fn)
}

func runTCP(addrs []string, lns []net.Listener, timeout time.Duration, opts TCPOptions, fn func(c *Comm) error) error {
	size := len(addrs)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var comm *Comm
			var cleanup func()
			var err error
			if lns != nil {
				comm, cleanup, err = DialTCPWithListener(addrs, r, lns[r], timeout, opts)
			} else {
				comm, cleanup, err = DialTCPOpts(addrs, r, timeout, opts)
			}
			if err != nil {
				errs[r] = err
				return
			}
			defer cleanup()
			errs[r] = fn(comm)
		}(r)
	}
	wg.Wait()
	// Prefer a root-cause error over cascade artifacts, as in Run.
	var cascade error
	for _, err := range errs {
		if err == nil || errors.Is(err, ErrClosed) {
			continue
		}
		if _, ok := IsRankFailure(err); ok {
			if cascade == nil {
				cascade = err
			}
			continue
		}
		return err
	}
	return cascade
}

// FreeLocalAddrs reserves n distinct loopback TCP addresses by briefly
// listening on port 0 and recording the assigned ports. The ports are
// released before return, so a concurrent process may steal one;
// FreeLocalListeners avoids that race by keeping the listeners open.
func FreeLocalAddrs(n int) ([]string, error) {
	lns, addrs, err := FreeLocalListeners(n)
	if err != nil {
		return nil, err
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// FreeLocalListeners reserves n loopback TCP listeners and returns them
// with their addresses. Pass each listener to DialTCPWithListener (or all
// of them to RunTCPListeners); ownership transfers there. On error, no
// listeners are left open.
func FreeLocalListeners(n int) ([]net.Listener, []string, error) {
	lns := make([]net.Listener, 0, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs, nil
}
