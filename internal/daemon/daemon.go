// Package daemon is the chassis keybin2d, keybin2router and
// keybin2failover share: the HTTP method guards, the routes every daemon
// serves, the defaulting of a component's run identity and telemetry, the
// command-line flags common to all three, and the one process lifecycle
// (Run). A daemon package declares its own routes and configuration on
// top; each cross-cutting decision is stated here once.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"keybin2/internal/histogram"
	"keybin2/internal/obs"
)

// GET admits GET and HEAD; any other method is answered 405 with
// Allow: GET — a read endpoint says so instead of silently accepting a
// write.
func GET(h http.HandlerFunc) http.HandlerFunc { return only(http.MethodGet, h) }

// POST admits POST only; any other method is answered 405 with
// Allow: POST, before the handler looks at the request.
func POST(h http.HandlerFunc) http.HandlerFunc { return only(http.MethodPost, h) }

func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		allowed := r.Method == method || (method == http.MethodGet && r.Method == http.MethodHead)
		if !allowed {
			w.Header().Set("Allow", method)
			http.Error(w, method+" required", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

// WriteJSON answers a request with v as JSON under the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// StartTrace begins a trace for a request, joined to the caller's
// distributed trace when the request carries a valid traceparent header —
// client, router and shard then share one trace ID.
func StartTrace(tr *obs.Tracer, h http.Header, name string, attrs ...obs.Attr) *obs.Trace {
	if pc, ok := obs.ExtractTraceparent(h); ok {
		return tr.StartLinked(name, pc, attrs...)
	}
	return tr.Start(name, attrs...)
}

// Identity fills in whichever of a component's run id, metrics registry
// and tracer its configuration left unset: a fresh run id, a private
// registry (so /metrics always answers) and a ring of the given number
// of traces stamped with the run id.
func Identity(runID string, reg *obs.Registry, tr *obs.Tracer, traces int) (string, *obs.Registry, *obs.Tracer) {
	if runID == "" {
		runID = obs.NewRunID()
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tr == nil {
		tr = obs.NewTracer(traces)
		tr.SetRunID(runID)
	}
	return runID, reg, tr
}

// Mux returns a mux holding the routes every daemon serves — GET
// /metrics, /trace and /healthz, plus /debug/pprof/* when enabled — for
// the daemon to add its own routes to.
func Mux(reg *obs.Registry, tr *obs.Tracer, enablePprof bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.Handle("/trace", tr.Handler())
	mux.HandleFunc("/healthz", GET(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	}))
	if enablePprof {
		mux.HandleFunc("/debug/pprof/", GET(pprof.Index))
		mux.HandleFunc("/debug/pprof/cmdline", GET(pprof.Cmdline))
		mux.HandleFunc("/debug/pprof/profile", GET(pprof.Profile))
		mux.HandleFunc("/debug/pprof/symbol", GET(pprof.Symbol))
		mux.HandleFunc("/debug/pprof/trace", GET(pprof.Trace))
	}
	return mux
}

// Flags are the command-line knobs every daemon takes.
type Flags struct {
	Addr     string
	LogLevel string
	Pprof    bool
	SlowSpan time.Duration
}

// Register binds -addr, -log-level, -pprof and -slow-span on fs; addr is
// the daemon's default listen address.
func (f *Flags) Register(fs *flag.FlagSet, addr string) {
	fs.StringVar(&f.Addr, "addr", addr, "HTTP listen address")
	fs.StringVar(&f.LogLevel, "log-level", "info", "minimum log level: debug | info | warn | error")
	fs.BoolVar(&f.Pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/")
	fs.DurationVar(&f.SlowSpan, "slow-span", 0, "log trace IDs of spans slower than this (0 = off)")
}

// Open mints the process's run id and builds what the flags describe: a
// stderr logger stamped with the run id, and a tracer retaining the
// given number of traces that logs slow spans through it.
func (f Flags) Open(traces int) (runID string, logger *obs.Logger, tracer *obs.Tracer, err error) {
	lvl, err := obs.ParseLevel(f.LogLevel)
	if err != nil {
		return "", nil, nil, fmt.Errorf("bad flags: %w", err)
	}
	runID = obs.NewRunID()
	logger = obs.NewLogger(os.Stderr, lvl, obs.KV("run_id", runID))
	tracer = obs.NewTracer(traces)
	tracer.SetRunID(runID)
	if f.SlowSpan > 0 {
		tracer.SetSlowSpanLog(f.SlowSpan, logger)
	}
	return runID, logger, tracer, nil
}

// ParseRange reads a -range value, 'lo,hi', into the predetermined bounds
// of every one of dims raw dimensions. It refuses what histogram.CheckRange
// refuses — a bound that is not finite, hi below lo, a width past the
// largest float64 — and lo == hi, a range with nothing in it.
// keybin2d and keybin2router must agree on it for shard histograms to be
// congruent, so both parse it here.
func ParseRange(spec string, dims int) ([][2]float64, error) {
	lohi := strings.SplitN(spec, ",", 2)
	if len(lohi) != 2 {
		return nil, fmt.Errorf("-range wants 'lo,hi', got %q", spec)
	}
	lo, err1 := strconv.ParseFloat(strings.TrimSpace(lohi[0]), 64)
	hi, err2 := strconv.ParseFloat(strings.TrimSpace(lohi[1]), 64)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("-range wants numeric 'lo,hi', got %q", spec)
	}
	if err := histogram.CheckRange(lo, hi); err != nil {
		return nil, fmt.Errorf("-range %q: %w", spec, err)
	}
	if lo == hi {
		return nil, fmt.Errorf("-range wants lo < hi, got %q", spec)
	}
	ranges := make([][2]float64, dims)
	for i := range ranges {
		ranges[i] = [2]float64{lo, hi}
	}
	return ranges, nil
}

// BaseURL checks a peer's base URL — a shard behind keybin2router, a
// node under keybin2failover — and returns it without trailing slashes.
// It must parse as an absolute http or https URL with a host: a request
// to anything else cannot be built, so the peer could never be probed.
func BaseURL(raw string) (string, error) {
	u := strings.TrimRight(raw, "/")
	p, err := url.Parse(u)
	if err != nil {
		return "", err // a *url.Error, which names the URL
	}
	if (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" {
		return "", fmt.Errorf("bad URL %q: want an absolute http(s) URL with a host", raw)
	}
	return u, nil
}

// readHeaderTimeout bounds how long a connection may take to deliver a
// request's headers. Without it one idle half-open connection pins a
// goroutine forever. It does not bound request bodies or handlers — a
// WAL tail long poll outlives it — nor a kept-alive connection idling
// between requests.
const readHeaderTimeout = 10 * time.Second

// Service is what a daemon hands Run: its handler and the two halves of
// its component's lifetime.
type Service struct {
	Handler http.Handler
	// Start launches the component's own goroutines. It is called once
	// the listener is bound, before the first request is served.
	Start func()
	// Stop is the component's stop hook. It runs on every path out of Run
	// after Start, once the HTTP server no longer serves — so no handler
	// can hand the component work behind its drain — under the same
	// deadline the HTTP shutdown had.
	Stop func(ctx context.Context) error
	// Logger receives the lifecycle lines; Banner is appended to the
	// "listening" line after the bound address.
	Logger *obs.Logger
	Banner []obs.Attr
}

// Run is a daemon's whole life: listen on addr, deliver the bound
// address on ready (when non-nil), serve until SIGINT/SIGTERM or a close
// of stop (which tests use), shut the HTTP server down within deadline,
// then run the stop hook.
func Run(addr string, svc Service, deadline time.Duration, stop <-chan struct{}, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serve(ln, svc, deadline, stop, ready)
}

func serve(ln net.Listener, svc Service, deadline time.Duration, stop <-chan struct{}, ready chan<- net.Addr) error {
	// Caught before the "listening" line: a supervisor or harness may
	// signal as soon as it reads that line, and an uncaught SIGINT kills
	// the process without a drain.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	if ready != nil {
		ready <- ln.Addr()
	}
	hs := &http.Server{Handler: svc.Handler, ReadHeaderTimeout: readHeaderTimeout}
	svc.Start()
	svc.Logger.Info("listening", append([]obs.Attr{obs.KV("addr", ln.Addr())}, svc.Banner...)...)

	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(ln) }()

	var serveErr error
	select {
	case s := <-sig:
		svc.Logger.Info("stopping", obs.KV("signal", s))
	case <-stop:
		svc.Logger.Info("stopping", obs.KV("signal", "stop requested"))
	case serveErr = <-httpErr:
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	if serveErr == nil {
		// Graceful order: the listener and every in-flight handler go
		// first, so nothing reaches the component behind its stop hook.
		if err := hs.Shutdown(ctx); err != nil {
			serveErr = fmt.Errorf("http shutdown: %w", err)
		}
	}
	return errors.Join(serveErr, svc.Stop(ctx))
}
