// Package chaos is the fleet's fault harness: it runs REAL keybin2d,
// keybin2router and keybin2failover processes, kill -9s them, and audits
// what the serving tier promises to survive. Three small parts:
//
//   - Fleet (this file) launches the processes, owns every one it started
//     and tears them all down in one place;
//   - ledger (ledger.go) is what the harness holds acknowledgements for,
//     and the audits every scenario runs against it;
//   - the scenario table (scenarios.go) is the single list of what is
//     proven at process level — DESIGN.md "Chaos scenarios" mirrors it.
//
// Three drivers read the one table: `go test ./internal/chaos` (tier-1,
// every scenario at its smallest size), `keybin2load -scenario NAME` (the
// CI soak counts), and Fleet is exported for a future bench workload.
package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Fleet starts daemon binaries out of one directory, logs their stderr
// into one file, and owns every process it started: Close kills whatever
// is still running, so a scenario that fails midway leaves nothing
// behind. It serializes nothing — a scenario drives it from one goroutine.
type Fleet struct {
	bin   string   // directory holding keybin2d, keybin2router, keybin2failover
	log   *os.File // every process's stderr, one tagged line per write
	procs []*Proc  // start order

	// patience bounds a start (until the listening line) and a drain
	// (SIGINT until exit); tests shorten it.
	patience time.Duration
}

// NewFleet opens dir/fleet.log and returns an empty fleet over the
// binaries in bin.
func NewFleet(bin, dir string) (*Fleet, error) {
	log, err := os.Create(filepath.Join(dir, "fleet.log"))
	if err != nil {
		return nil, err
	}
	return &Fleet{bin: bin, log: log, patience: 30 * time.Second}, nil
}

// Proc is one process of the fleet. Addr and URL are where it actually
// bound — every start asks for 127.0.0.1:0, and Revive asks for Addr.
type Proc struct {
	Addr string // host:port from the process's listening line
	URL  string // "http://" + Addr

	fleet *Fleet
	tag   string // "keybin2d#2": binary and start index, the log prefix
	name  string
	args  []string
	run   *incarnation
	down  bool // the harness took it down on purpose (Kill or Stop)
}

// incarnation is one run of a Proc; err is valid once exited is closed.
type incarnation struct {
	cmd    *exec.Cmd
	exited chan struct{}
	err    error
}

// Start launches bin/name on 127.0.0.1:0 with args and returns once the
// process has printed daemon.Run's `msg=listening addr=…` line — at that
// point the listener is bound and the component started, so the first
// request cannot be refused. A process that exits first is an error
// carrying its exit status; its last words are in the fleet log.
func (f *Fleet) Start(ctx context.Context, name string, args ...string) (*Proc, error) {
	p := &Proc{fleet: f, name: name, args: args, tag: fmt.Sprintf("%s#%d", name, len(f.procs))}
	if err := f.launch(ctx, p, "127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.procs = append(f.procs, p)
	return p, nil
}

// Revive restarts a process that is down with its original arguments on
// its original address: the restarted node, the zombie ex-primary, the
// shard that rejoins.
func (f *Fleet) Revive(ctx context.Context, p *Proc) error {
	select {
	case <-p.run.exited:
	default:
		return fmt.Errorf("chaos: revive %s: still running", p.tag)
	}
	p.down = false
	return f.launch(ctx, p, p.Addr)
}

func (f *Fleet) launch(ctx context.Context, p *Proc, addr string) error {
	cmd := exec.Command(filepath.Join(f.bin, p.name), append([]string{"-addr", addr}, p.args...)...)
	// One writer for stderr: exec copies into it on its own goroutine and
	// Wait returns only after that copy has seen EOF, so the last lines of
	// a process that dies — the ones a failed run needs — are never lost.
	sniff := &sniffer{log: f.log, tag: p.tag, addr: make(chan string, 1)}
	cmd.Stderr = sniff
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("chaos: start %s: %w", p.tag, err)
	}
	r := &incarnation{cmd: cmd, exited: make(chan struct{})}
	p.run = r
	go func() {
		r.err = cmd.Wait()
		sniff.flush()
		close(r.exited)
	}()
	select {
	case a := <-sniff.addr:
		p.Addr, p.URL = a, "http://"+a
		return nil
	case <-r.exited:
		return fmt.Errorf("chaos: %s exited before listening: %v", p.tag, r.err)
	case <-time.After(f.patience):
		p.Kill()
		return fmt.Errorf("chaos: %s never reported its listen address", p.tag)
	case <-ctx.Done():
		p.Kill()
		return fmt.Errorf("chaos: start %s: %w", p.tag, ctx.Err())
	}
}

// Kill is the chaos event: SIGKILL, no drain, no goodbye. It returns once
// the process is gone; killing a dead process is a no-op.
func (p *Proc) Kill() {
	p.down = true
	p.run.cmd.Process.Kill() // an error means it already exited; wait either way
	<-p.run.exited
}

// Stop is the graceful drain: SIGINT, then wait. The process must exit 0
// on its own; one that had to be killed, or exits nonzero, is an error.
func (p *Proc) Stop() error {
	p.down = true
	p.run.cmd.Process.Signal(os.Interrupt) // fails only if it already exited: its status is the verdict
	select {
	case <-p.run.exited:
		if p.run.err != nil {
			return fmt.Errorf("chaos: %s did not drain cleanly: %w", p.tag, p.run.err)
		}
		return nil
	case <-time.After(p.fleet.patience):
		p.Kill()
		return fmt.Errorf("chaos: %s ignored SIGINT for %s; killed", p.tag, p.fleet.patience)
	}
}

// Drain stops every process the harness has not already taken down, in
// reverse start order (control plane first, primary last), and reports
// every one that did not exit 0 by itself.
func (f *Fleet) Drain() error {
	var errs []error
	for i := len(f.procs) - 1; i >= 0; i-- {
		if p := f.procs[i]; !p.down {
			errs = append(errs, p.Stop())
		}
	}
	return errors.Join(errs...)
}

// Close is the one teardown: it kills every process still running and
// closes the log. Safe after Drain, and on every path out of a scenario.
func (f *Fleet) Close() {
	for _, p := range f.procs {
		p.Kill()
	}
	f.log.Close()
}

// LogTail returns the last lines of the fleet log, for a failure report.
func (f *Fleet) LogTail(lines int) string {
	b, err := os.ReadFile(f.log.Name())
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// sniffer is a process's stderr: it copies each complete line, tagged,
// into the fleet log with one write (lines of different processes never
// interleave mid-line) and delivers the first listen address it sees.
type sniffer struct {
	log  *os.File
	tag  string
	buf  []byte
	addr chan string // buffered 1, filled by the first listening line
}

func (s *sniffer) Write(b []byte) (int, error) {
	s.buf = append(s.buf, b...)
	for {
		i := bytes.IndexByte(s.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		s.line(s.buf[:i])
		s.buf = s.buf[i+1:]
	}
}

// flush logs a final line the process never terminated.
func (s *sniffer) flush() {
	if len(s.buf) > 0 {
		s.line(s.buf)
		s.buf = nil
	}
}

func (s *sniffer) line(l []byte) {
	fmt.Fprintf(s.log, "%s %s\n", s.tag, l)
	if a := listenAddr(string(l)); a != "" {
		select {
		case s.addr <- a:
		default: // a later line repeating it: launch already has the first
		}
	}
}

// listenAddr extracts the bound address from daemon.Run's one startup
// line (msg=listening addr=127.0.0.1:7420 …), which all three daemons
// print; "" for any other line.
func listenAddr(line string) string {
	if !strings.Contains(line, "msg=listening") {
		return ""
	}
	for _, f := range strings.Fields(line) {
		if a, ok := strings.CutPrefix(f, "addr="); ok {
			return strings.Trim(a, `"`)
		}
	}
	return ""
}
