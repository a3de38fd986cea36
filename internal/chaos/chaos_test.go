package chaos

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/obs"
	"keybin2/internal/server"
)

// The launcher tests run this test binary as the "daemon": stubDir links
// it under a stub's name, and TestMain turns into that stub when it finds
// itself started under one. No daemon binary, no environment variable.
var stubs = map[string]func(listening func()){
	// A well-behaved daemon: listens, says so, exits 0 on SIGINT.
	"stub-listen": func(listening func()) {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		listening()
		<-sig
	},
	// Ignores SIGINT: Stop has to kill it.
	"stub-deaf": func(listening func()) {
		signal.Ignore(os.Interrupt)
		listening()
		select {}
	},
	// On SIGINT writes its last words to stderr and exits at once — the
	// lines a launcher that races Wait against its own pipe reader can lose.
	"stub-lastwords": func(listening func()) {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		listening()
		<-sig
		for i := 0; i < lastWords; i++ {
			fmt.Fprintf(os.Stderr, "last words %d\n", i)
		}
	},
}

const lastWords = 400

func TestMain(m *testing.M) {
	name := filepath.Base(os.Args[0])
	if name == "stub-exit" { // dies before it listens
		fmt.Fprintln(os.Stderr, "cannot open the WAL: disk on fire")
		os.Exit(3)
	}
	if stub, ok := stubs[name]; ok {
		ln, err := net.Listen("tcp", os.Args[2]) // the fleet's launch puts "-addr ADDR" first
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		go http.Serve(ln, http.NotFoundHandler())
		// The stub's signal disposition is in place before it says it
		// listens — the line is the harness's cue to start signalling. The
		// line itself is the real chassis's, through the real logger.
		stub(func() {
			obs.NewLogger(os.Stderr, obs.LevelInfo, obs.KV("run_id", "stub")).Info("listening", obs.KV("addr", ln.Addr()))
		})
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// stubDir returns a bin directory holding every stub.
func stubDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"stub-listen", "stub-deaf", "stub-lastwords", "stub-exit"} {
		if err := os.Symlink(os.Args[0], filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func stubFleet(t *testing.T) *Fleet {
	t.Helper()
	f, err := NewFleet(stubDir(t), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// gone reports whether the process has been reaped.
func gone(p *Proc) bool {
	return errors.Is(syscall.Kill(p.run.cmd.Process.Pid, 0), syscall.ESRCH)
}

func TestStartParsesTheListeningLine(t *testing.T) {
	f := stubFleet(t)
	p, err := f.Start(context.Background(), "stub-listen", "-dims", "3")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(p.URL + "/")
	if err != nil {
		t.Fatalf("parsed address %q does not answer: %v", p.Addr, err)
	}
	resp.Body.Close()
	first := p.Addr
	if err := p.Stop(); err != nil {
		t.Fatalf("a daemon that exits 0 on SIGINT: %v", err)
	}
	if err := f.Revive(context.Background(), p); err != nil {
		t.Fatal(err)
	}
	if p.Addr != first {
		t.Errorf("revived on %s, want the original %s", p.Addr, first)
	}
	if err := f.Drain(); err != nil {
		t.Error(err)
	}
	if log := f.LogTail(10); !strings.Contains(log, "stub-listen#0 ") || !strings.Contains(log, "msg=listening addr="+first) {
		t.Errorf("fleet log lacks the tagged listening line:\n%s", log)
	}
}

func TestStartReportsAnEarlyExit(t *testing.T) {
	f := stubFleet(t)
	_, err := f.Start(context.Background(), "stub-exit")
	if err == nil || !strings.Contains(err.Error(), "exited before listening") || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("err = %v, want an early exit carrying status 3", err)
	}
	if log := f.LogTail(10); !strings.Contains(log, "disk on fire") {
		t.Errorf("the dying process's stderr is not in the fleet log:\n%s", log)
	}
}

func TestStopKillsWhatIgnoresSIGINT(t *testing.T) {
	f := stubFleet(t)
	f.patience = 300 * time.Millisecond
	p, err := f.Start(context.Background(), "stub-deaf")
	if err != nil {
		t.Fatal(err)
	}
	err = p.Stop()
	if err == nil || !strings.Contains(err.Error(), "ignored SIGINT") || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("Stop = %v, want it to say it had to kill", err)
	}
	if !gone(p) {
		t.Error("the deaf process survived Stop")
	}
}

// TestLastWordsReachTheLog pins the launcher's arrangement: stderr is one
// writer handed to os/exec, so Wait covers the copy. (Reading StderrPipe
// on one goroutine while another calls Wait is what os/exec documents as
// incorrect; CHANGES.md records whether this test caught that launcher.)
func TestLastWordsReachTheLog(t *testing.T) {
	f := stubFleet(t)
	p, err := f.Start(context.Background(), "stub-lastwords")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	log := f.LogTail(lastWords+10) + "\n"
	for i := 0; i < lastWords; i++ {
		if !strings.Contains(log, fmt.Sprintf("stub-lastwords#0 last words %d\n", i)) {
			t.Fatalf("line %d of %d never reached the fleet log", i, lastWords)
		}
	}
}

// TestRunLeavesNothingBehind: a scenario that fails after starting three
// nodes leaves none running, and its error carries the fleet log.
func TestRunLeavesNothingBehind(t *testing.T) {
	var started []*Proc
	_, err := run(context.Background(), func(ctx context.Context, f *Fleet, cfg Config) (Report, error) {
		for i := 0; i < 3; i++ {
			p, err := f.Start(ctx, "stub-listen")
			if err != nil {
				return Report{}, err
			}
			started = append(started, p)
		}
		return Report{}, errors.New("invariant broken")
	}, Config{Bin: stubDir(t), Dir: filepath.Join(t.TempDir(), "not", "there", "yet")})
	if err == nil || !strings.Contains(err.Error(), "invariant broken") || !strings.Contains(err.Error(), "msg=listening") {
		t.Fatalf("err = %v, want the scenario's error with the fleet log's tail", err)
	}
	if len(started) != 3 {
		t.Fatalf("started %d nodes", len(started))
	}
	for _, p := range started {
		if !gone(p) {
			t.Errorf("%s is still running after a failed scenario", p.tag)
		}
	}
}

// fakeNode answers /stats, /label and /ingest the way the test says, so
// each audit can be shown to fail when the fleet misbehaves.
type fakeNode struct {
	hwm     uint64 // producer high-water mark in /stats
	seen    int64  // applied points in /stats
	flip    int    // probe labels answered differently from a healthy node
	gen     int64  // model generation on /label
	status  int    // /ingest status
	primary string // X-KB2-Primary on /ingest
	busy    int64  // /ingest answers 429 this many times before status
	// seqs, when set, receives the X-Batch-Seq of every /ingest.
	seqs chan string
}

func (n fakeNode) start(t *testing.T) (*Proc, *client.Client) {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(server.Stats{Seen: n.seen, Role: "primary", Producers: map[string]uint64{producer: n.hwm}})
	})
	mux.HandleFunc("/label", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		labels := make([]int, 256)
		for i := 0; i < n.flip; i++ {
			labels[i] = 1
		}
		json.NewEncoder(w).Encode(client.LabelResult{Labels: labels, ModelGen: n.gen})
	})
	var ingests atomic.Int64
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		if n.seqs != nil {
			n.seqs <- r.Header.Get("X-Batch-Seq")
		}
		if ingests.Add(1) <= n.busy {
			w.Header().Set("X-Retry-After-Ms", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Header().Set("X-KB2-Primary", n.primary)
		w.WriteHeader(n.status)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	p := &Proc{URL: ts.URL}
	return p, node(p)
}

// heldLedger holds acks for 3 batches of 10 points.
func heldLedger() *ledger {
	l := newLedger(Config{Dims: 4, Batch: 10, Seed: 1})
	l.patience = 150 * time.Millisecond
	l.next, l.acked, l.batches, l.points = 3, 3, 3, 30
	return l
}

func TestAudit(t *testing.T) {
	for _, tc := range []struct {
		name string
		node fakeNode
		want string // "" = passes
	}{
		{"everything recovered", fakeNode{hwm: 3, seen: 30}, ""},
		{"more than acked is fine", fakeNode{hwm: 4, seen: 40}, ""},
		{"producer horizon behind the acks", fakeNode{hwm: 2, seen: 30}, "ACKED BATCH LOST: node recovered producer seq 2, harness holds ack for 3"},
		{"acked points never applied", fakeNode{hwm: 3, seen: 20}, "acked points never replayed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, c := tc.node.start(t)
			start := time.Now()
			err := heldLedger().audit(context.Background(), c, "recovery")
			if tc.want == "" && err != nil {
				t.Fatalf("audit of a healthy node: %v", err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("audit = %v, want %q", err, tc.want)
			}
			if time.Since(start) > 5*time.Second {
				t.Errorf("audit took %s against a %s patience", time.Since(start), 150*time.Millisecond)
			}
		})
	}
}

func TestAgree(t *testing.T) {
	l := heldLedger()
	_, healthy := fakeNode{gen: 2}.start(t)
	_, twin := fakeNode{gen: 2}.start(t)
	_, flipped := fakeNode{gen: 2, flip: 1}.start(t)
	_, newer := fakeNode{gen: 3}.start(t)
	ctx := context.Background()

	want, err := l.agree(ctx, nil, sameModel, healthy, twin)
	if err != nil || len(want.Labels) != 256 || want.ModelGen != 2 {
		t.Fatalf("two identical nodes: %+v, %v", want, err)
	}
	if _, err := l.agree(ctx, nil, sameModel, healthy, twin, flipped); err == nil || !strings.Contains(err.Error(), "node 2: 1 of 256 probe labels differ") {
		t.Errorf("one flipped label: %v", err)
	}
	if _, err := l.agree(ctx, &want, sameLabels, flipped); err == nil || !strings.Contains(err.Error(), "1 of 256 probe labels differ") {
		t.Errorf("one flipped label against a recorded answer: %v", err)
	}
	if _, err := l.agree(ctx, &want, sameModel, newer); err == nil || !strings.Contains(err.Error(), "model_gen 2 vs 3") {
		t.Errorf("replica at another generation: %v", err)
	}
	if _, err := l.agree(ctx, &want, sameLabels, newer); err != nil {
		t.Errorf("a restarted node owes the labels, not the generation: %v", err)
	}
}

func TestExpectRedirect(t *testing.T) {
	l := heldLedger()
	primary := &Proc{URL: "http://primary.example:7420"}
	for _, tc := range []struct {
		name string
		node fakeNode
		want string
	}{
		{"typed redirect", fakeNode{status: 421, primary: primary.URL}, ""},
		{"follower took the write", fakeNode{status: 202, primary: primary.URL}, "answered a plain ingest with 202, want the 421 primary redirect"},
		{"redirect to somebody else", fakeNode{status: 421, primary: "http://zombie.example:1"}, `names "http://zombie.example:1", want "http://primary.example:7420"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			follower, _ := tc.node.start(t)
			err := l.expectRedirect(context.Background(), follower, primary)
			if tc.want == "" && err != nil {
				t.Fatal(err)
			}
			if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("expectRedirect = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestLedgerSend holds the ledger's one write step to the client's
// retrying send: a busy node is retried under the ledger's sequence and
// the ack booked once, and a replica-set client that rotates off a
// follower with no hint still sends the sequence the ledger chose.
func TestLedgerSend(t *testing.T) {
	ctx := context.Background()
	drain := func(seqs chan string) []string {
		var got []string
		for len(seqs) > 0 {
			got = append(got, <-seqs)
		}
		return got
	}

	// Each buffer holds every attempt its node can see in this test (three
	// and one), with room to spare, so the handler never blocks.
	seqs := make(chan string, 8)
	_, c := fakeNode{busy: 2, status: http.StatusAccepted, seqs: seqs}.start(t)
	l := heldLedger()
	ack, err := l.send(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(seqs); !slices.Equal(got, []string{"4", "4", "4"}) {
		t.Errorf("X-Batch-Seq of the attempts = %v, want the ledger's 4 three times", got)
	}
	if ack.Retries != 2 {
		t.Errorf("ack reports %d retries, want 2", ack.Retries)
	}
	if l.next != 4 || l.acked != 4 || l.batches != 4 || l.points != 40 || l.dupes != 0 {
		t.Errorf("ledger after one send over two 429s: next %d acked %d batches %d points %d dupes %d, want one more ack",
			l.next, l.acked, l.batches, l.points, l.dupes)
	}

	follower, _ := fakeNode{status: http.StatusMisdirectedRequest}.start(t)
	primarySeqs := make(chan string, 8)
	primary, _ := fakeNode{status: http.StatusAccepted, seqs: primarySeqs}.start(t)
	pool := node(follower)
	pool.SetEndpoints(follower.URL, primary.URL)
	l = heldLedger()
	if _, err := l.send(ctx, pool); err != nil {
		t.Fatal(err)
	}
	if got := drain(primarySeqs); !slices.Equal(got, []string{"4"}) {
		t.Errorf("second endpoint saw X-Batch-Seq %v, want the ledger's [4]", got)
	}
	if l.acked != 4 {
		t.Errorf("ledger acked %d after the rotated send, want 4", l.acked)
	}
}

// TestScenarios is the table in tier-1: every scenario against real
// daemon binaries (built here, once) at its smallest size — crash at two
// cycles so both the race-the-kill and the lost-ack branch run.
func TestScenarios(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("the go tool is not on PATH: cannot build the daemons the scenarios run")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(os.PathSeparator),
		"keybin2/cmd/keybin2d", "keybin2/cmd/keybin2router", "keybin2/cmd/keybin2failover")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{Bin: bin, Dir: t.TempDir(), Points: 6000}
			if name == "crash" {
				cfg.Cycles = 2
			}
			rep, err := Run(ctx, name, cfg)
			if err != nil {
				t.Errorf("%v", err)
			}
			if rep.PointsAcked == 0 || rep.ProbeLabels != 256 {
				t.Errorf("report %+v: no points acked or no probe answer", rep)
			}
		})
	}
}
