package daemon

import (
	"context"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"keybin2/internal/obs"
)

// recorder is a Service whose lifecycle calls append to one ordered log.
type recorder struct {
	mu     sync.Mutex
	events []string
}

func (r *recorder) add(ev string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, ev)
}

func (r *recorder) log() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return strings.Join(r.events, " ")
}

func (r *recorder) service(h http.Handler, stopErr error) Service {
	return Service{
		Handler: h,
		Start:   func() { r.add("start") },
		Stop: func(ctx context.Context) error {
			if _, bounded := ctx.Deadline(); !bounded {
				r.add("stop-without-deadline")
			}
			r.add("stop")
			return stopErr
		},
		Logger: obs.NewLogger(io.Discard, obs.LevelError),
	}
}

// TestRunLifecycle drives the one lifecycle all three daemons share: the
// bound address is delivered, requests are served, and on stop the HTTP
// server shuts down — waiting for the handler in flight — before the
// component's stop hook runs.
func TestRunLifecycle(t *testing.T) {
	var rec recorder
	inHandler, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
		rec.add("handler-done")
	})
	mux.HandleFunc("/healthz", GET(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") }))

	stop := make(chan struct{})
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- Run("127.0.0.1:0", rec.service(mux, nil), time.Minute, stop, ready) }()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr.String()
	case err := <-errc:
		t.Fatalf("Run returned before it was ready: %v", err)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz → %d", resp.StatusCode)
	}

	slow := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/slow")
		if err == nil {
			resp.Body.Close()
		}
		slow <- err
	}()
	<-inHandler
	close(stop)
	// Shutdown closes the listener first: once a dial is refused, the
	// shutdown is under way and is waiting on the handler still in flight.
	for {
		c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			break
		}
		c.Close()
		runtime.Gosched()
	}
	if got := rec.log(); got != "start" {
		t.Fatalf("with a handler still in flight the lifecycle read %q, want only \"start\"", got)
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := <-slow; err != nil {
		t.Fatalf("the in-flight request was cut off: %v", err)
	}
	if got, want := rec.log(), "start handler-done stop"; got != want {
		t.Fatalf("lifecycle %q, want %q", got, want)
	}
}

// TestRunListenError: an address that cannot be bound is Run's error, and
// the component is neither started nor stopped.
func TestRunListenError(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	var rec recorder
	err = Run(taken.Addr().String(), rec.service(http.NotFoundHandler(), nil), time.Second, nil, nil)
	if err == nil {
		t.Fatal("Run bound an address already in use")
	}
	if got := rec.log(); got != "" {
		t.Fatalf("lifecycle %q after a failed listen, want nothing", got)
	}
}

// brokenListener fails its first Accept, which ends http.Server.Serve.
type brokenListener struct {
	net.Listener
	err error
}

func (b brokenListener) Accept() (net.Conn, error) { return nil, b.err }

// TestRunServeError: when serving fails the stop hook still runs, and both
// errors reach the caller.
func TestRunServeError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	acceptErr, stopErr := errors.New("accept failed"), errors.New("stop failed")
	var rec recorder
	err = serve(brokenListener{ln, acceptErr}, rec.service(http.NotFoundHandler(), stopErr), time.Second, nil, nil)
	if !errors.Is(err, acceptErr) || !errors.Is(err, stopErr) {
		t.Fatalf("serve error = %v, want both %v and %v", err, acceptErr, stopErr)
	}
	if got, want := rec.log(), "start stop"; got != want {
		t.Fatalf("lifecycle %q, want %q", got, want)
	}
}

// TestMethodGuards pins the chassis' 405 contract directly.
func TestMethodGuards(t *testing.T) {
	ok := func(w http.ResponseWriter, r *http.Request) {}
	cases := []struct {
		name   string
		h      http.HandlerFunc
		method string
		code   int
		allow  string
	}{
		{"GET admits GET", GET(ok), http.MethodGet, 200, ""},
		{"GET admits HEAD", GET(ok), http.MethodHead, 200, ""},
		{"GET refuses POST", GET(ok), http.MethodPost, 405, "GET"},
		{"POST admits POST", POST(ok), http.MethodPost, 200, ""},
		{"POST refuses GET", POST(ok), http.MethodGet, 405, "POST"},
		{"POST refuses HEAD", POST(ok), http.MethodHead, 405, "POST"},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		tc.h(w, httptest.NewRequest(tc.method, "/", nil))
		if w.Code != tc.code || w.Header().Get("Allow") != tc.allow {
			t.Errorf("%s: %d Allow=%q, want %d Allow=%q", tc.name, w.Code, w.Header().Get("Allow"), tc.code, tc.allow)
		}
	}
}

// TestFlagsKeepNamesAndDefaults: the shared flags are part of every
// daemon's command line; their names and defaults are a contract.
func TestFlagsKeepNamesAndDefaults(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("d", flag.ContinueOnError)
	f.Register(fs, ":7420")
	want := map[string]string{"addr": ":7420", "log-level": "info", "pprof": "false", "slow-span": "0s"}
	fs.VisitAll(func(fl *flag.Flag) {
		if def, ok := want[fl.Name]; !ok || def != fl.DefValue {
			t.Errorf("flag -%s default %q is not in the contract %v", fl.Name, fl.DefValue, want)
		}
		delete(want, fl.Name)
	})
	if len(want) != 0 {
		t.Errorf("flags not registered: %v", want)
	}
	f.LogLevel = "chatty"
	if _, _, _, err := f.Open(8); err == nil {
		t.Error("Open accepted an unknown log level")
	}
}
