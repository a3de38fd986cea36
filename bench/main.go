// Command bench is the KeyBin2 benchmark BENCHMARK.json names: one
// workload per process, driven through the real layers (core, mpi,
// server, client, shardcluster) in-process over loopback sockets.
// README.md explains every workload and metric.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// processStart anchors setup_s: set-up is counted from the moment the
// process exists, not from the moment main gets round to it.
var processStart = time.Now()

var workloads = []string{"fit_batch", "ingest_plain", "ingest_wal_read", "fleet_routed"}

// plan is one run's arguments.
type plan struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // directory for WAL and checkpoint files
}

// watchdog bounds a run. The driver gives a run 180 s; a run that hangs
// must still remove its files and say so.
const watchdog = 170 * time.Second

// runWorkload runs one workload and returns its report. The scratch
// directory is created under dir and removed again, whatever happens.
func runWorkload(p plan, sz sizes, dir string) (*report, *recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	scratch, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return nil, nil, err
	}
	var once sync.Once
	cleanup := func() { once.Do(func() { os.RemoveAll(scratch) }) }
	defer cleanup()
	// A run that is interrupted or hangs still removes its files.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
			return
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %v: removing %s\n", s, scratch)
		case <-time.After(watchdog):
			fmt.Fprintf(os.Stderr, "bench: workload %s still running after %s: giving up\n", p.workload, watchdog)
		}
		cleanup()
		os.Exit(3)
	}()

	p.scratch = scratch
	rep := newReport(p.workload)
	rec := newRecorder(p.workload)
	rec.on.Store(p.trace)
	switch p.workload {
	case "fit_batch":
		err = (&fitBatch{plan: p, sz: sz, rep: rep, rec: rec}).run()
	case "ingest_plain", "ingest_wal_read", "fleet_routed":
		err = (&serving{plan: p, sz: sz, rep: rep, rec: rec}).run()
	default:
		err = fmt.Errorf("unknown workload %q (have %s)", p.workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return rep, rec, err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return rep, rec, err
	}
	rep.set("peak_rss_mb", rss)
	if p.trace {
		rep.zeroMissing(perLayer)
	}
	return rep, rec, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status: %v", sc.Err())
}

// printSpanTable prints self time per span name: where the traced run
// spent its time, layer by layer.
func printSpanTable(w io.Writer, rec *recorder) {
	selfNs, count := selfByName(rec.snapshot())
	fmt.Fprintf(w, "%-28s %8s %14s\n", "span", "count", "self_ms")
	for _, name := range sortedKeys(selfNs) {
		fmt.Fprintf(w, "%-28s %8d %14.3f\n", name, count[name], float64(selfNs[name])/1e6)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
		seed      = flag.Int64("seed", 1, "seed the inputs are drawn from")
		seconds   = flag.Float64("seconds", 16, "how long the run measures: all of it in saturation rounds, or 40% rounds and 30% open-loop phase when traced")
		trace     = flag.Int("trace", 0, "1 = traced run: span recorder on, layer ladder, per-layer metrics on the JSON line")
		traceOut  = flag.String("trace-out", "", "traced run: write the spans to this file as JSON")
		smoke     = flag.Bool("smoke", false, "tiny sizes, for a quick look that everything runs")
		repeat    = flag.Int("repeat", 0, "run this many full sets of all workloads, each in a fresh process, and summarise")
		benchJSON = flag.String("benchmark-json", "BENCHMARK.json", "repeat mode: where the bounds are read from")
		dir       = flag.String("dir", ".bench_build", "directory that holds the run's temporary files")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	fmt.Printf("bench: seed=%d seconds=%g trace=%d GOMAXPROCS=%d nproc=%d %s\n",
		*seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	if *repeat > 0 {
		os.Exit(runRepeat(os.Stdout, *repeat, *seed, *seconds, *smoke, *benchJSON, *dir))
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "bench: -workload or -repeat is required")
		os.Exit(2)
	}
	sz := fullSizes
	if *smoke {
		sz = smokeSizes
	}
	p := plan{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0}
	rep, rec, err := runWorkload(p, sz, filepath.Join(*dir, "run"))
	if err != nil {
		if rep != nil {
			for _, c := range rep.checks {
				fmt.Fprintf(os.Stderr, "CHECK FAILED %s\n", c)
			}
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	tab := endToEnd
	if p.trace {
		tab = perLayer
		printSpanTable(os.Stdout, rec)
		if *traceOut != "" {
			if err := rec.writeFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if err := rep.print(os.Stdout, tab); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if len(rep.checks) > 0 {
		os.Exit(1)
	}
}
