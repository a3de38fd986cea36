// Command benchjson measures the labeling-pipeline kernels plus the
// keybin2d serving path and writes the results as JSON, seeding the repo's
// performance trajectory. It tracks ns/point for per-point key assignment,
// the tuple-counting pass, the end-to-end serial Fit at the Table-1 medium
// scale, and — via an in-process daemon driven by the client load
// generator — concurrent ingest throughput and /label query latency.
//
// Usage:
//
//	benchjson                          # writes BENCH_keybin2.json
//	benchjson -points 50000 -dims 64   # custom fixture
//	benchjson -o - -reps 5             # print to stdout, 5 repetitions
//	benchjson -server-points 200000    # heavier service measurement
//	benchjson -no-server               # kernels only
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

type report struct {
	// Schema identifies the payload for downstream tooling.
	Schema     string             `json:"schema"`
	GoMaxProcs int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	Kernels    core.KernelTimings `json:"kernels"`
	// Server is the keybin2d serving-path measurement: an in-process
	// daemon under the client load generator (concurrent batched ingest +
	// live /label queries), with the write-ahead log disabled.
	Server *client.LoadReport `json:"server,omitempty"`
	// ServerWALInterval / ServerWALNever repeat the measurement with a WAL
	// in front of the ack under fsync=interval and fsync=never — the cost
	// of the durability layer at its two batched settings. (fsync=always
	// serializes on device flushes and is deliberately not part of the
	// throughput trajectory; its cost is the device's, not the code's.)
	ServerWALInterval *client.LoadReport `json:"server_wal_interval,omitempty"`
	ServerWALNever    *client.LoadReport `json:"server_wal_never,omitempty"`
	// HotPath holds the ingest microbenchmark baselines that CI's
	// bench-guard job replays (same `go test -bench` harness) and compares
	// against.
	HotPath *hotPathReport `json:"hotpath,omitempty"`
}

// hotPathReport records best-of-N throughput for the three ingest-path
// microbenchmarks and the projection kernel. Values are the benchmarks' own
// ReportMetric outputs, so a CI re-run of the identical benchmark is
// directly comparable.
type hotPathReport struct {
	IngestBatchPtsPerSec  float64 `json:"ingest_batch_pts_per_sec"`
	DecodeBatchPtsPerSec  float64 `json:"decode_batch_pts_per_sec"`
	GroupCommitRecsPerSec float64 `json:"group_commit_recs_per_sec"`
	// MulProjectionPtsPerSec is linalg.Mul at the ingest chunk shape. The
	// scalar loop runs at well under half of it, so a build or CPU that
	// silently falls back from the AVX2 kernel fails the guard.
	MulProjectionPtsPerSec float64 `json:"mul_projection_pts_per_sec"`
}

// measureHotPath runs the microbenchmarks through the real `go test -bench`
// harness with the exact flags CI's bench-guard job replays (-benchtime=1x,
// best of reps counts; 2000x for the 20 µs projection kernel, which one
// iteration cannot time), so the recorded baseline and the guard
// measurement share both code path and methodology — single cold-ish
// iterations compared against single cold-ish iterations.
func measureHotPath(reps int) (*hotPathReport, error) {
	h := &hotPathReport{}
	var err error
	if h.IngestBatchPtsPerSec, err = benchBest("./internal/core", "BenchmarkIngestBatch", "1x", reps, "pts/s"); err != nil {
		return nil, err
	}
	if h.DecodeBatchPtsPerSec, err = benchBest("./internal/server", "BenchmarkDecodeBatchZeroCopy", "1x", reps, "pts/s"); err != nil {
		return nil, err
	}
	if h.GroupCommitRecsPerSec, err = benchBest("./internal/server", "BenchmarkGroupCommit", "1x", reps, "recs/s"); err != nil {
		return nil, err
	}
	if h.MulProjectionPtsPerSec, err = benchBest("./internal/linalg", "BenchmarkMulProjection", "2000x", reps, "pts/s"); err != nil {
		return nil, err
	}
	return h, nil
}

// benchBest runs one benchmark for reps counts and returns the best value
// it reported with the given ReportMetric unit.
func benchBest(pkg, name, benchtime string, reps int, unit string) (float64, error) {
	out, err := exec.Command("go", "test", "-run", "^$",
		"-bench", "^"+name+"$", "-benchtime", benchtime,
		"-count", strconv.Itoa(reps), pkg).CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("%s: %v\n%s", name, err, out)
	}
	return bestMetric(string(out), name, unit)
}

// bestMetric extracts the maximum value reported with the given unit across
// the benchmark's output lines ("BenchmarkFoo  100  12 ns/op  3400000 pts/s").
func bestMetric(out, name, unit string) (float64, error) {
	var best float64
	found := false
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		f := strings.Fields(line)
		for i := 1; i < len(f); i++ {
			if f[i] != unit {
				continue
			}
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: bad %s value %q", name, unit, f[i-1])
			}
			if !found || v > best {
				best, found = v, true
			}
		}
	}
	if !found {
		return 0, fmt.Errorf("%s: no %q metric in output:\n%s", name, unit, out)
	}
	return best, nil
}

func main() {
	var (
		points    = flag.Int("points", 30000, "fixture rows (Table-1 medium scale)")
		dims      = flag.Int("dims", 80, "fixture dimensionality")
		reps      = flag.Int("reps", 3, "repetitions per measurement (fastest kept)")
		seed      = flag.Int64("seed", 1, "fixture + fit seed")
		out       = flag.String("o", "BENCH_keybin2.json", "output path ('-' for stdout)")
		noServer  = flag.Bool("no-server", false, "skip the keybin2d serving-path measurement")
		noWAL     = flag.Bool("no-wal", false, "skip the WAL-enabled serving-path measurements")
		noHotPath = flag.Bool("no-hotpath", false, "skip the ingest microbenchmark baselines (needs the go toolchain)")
		srvPts    = flag.Int("server-points", 100000, "points driven through the in-process daemon")
		srvDims   = flag.Int("server-dims", 16, "serving-path dimensionality")
	)
	flag.Parse()

	spec := synth.AutoMixture(4, *dims, 6, 1, xrand.New(*seed))
	data, _ := spec.Sample(*points, xrand.New(*seed+1))
	kt, err := core.MeasureKernels(data, core.Config{Seed: *seed + 2}, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep := report{
		Schema:     "keybin2/bench/v1",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Kernels:    kt,
	}
	if !*noServer {
		lr, err := measureServer(*srvPts, *srvDims, *seed, "")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: server:", err)
			os.Exit(1)
		}
		rep.Server = &lr
		if !*noWAL {
			wi, err := measureServer(*srvPts, *srvDims, *seed, "interval")
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: server wal=interval:", err)
				os.Exit(1)
			}
			rep.ServerWALInterval = &wi
			wn, err := measureServer(*srvPts, *srvDims, *seed, "never")
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchjson: server wal=never:", err)
				os.Exit(1)
			}
			rep.ServerWALNever = &wn
		}
	}
	if !*noHotPath {
		hp, err := measureHotPath(*reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: hotpath:", err)
			os.Exit(1)
		}
		rep.HotPath = hp
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: key-assign %.1f ns/pt, tuple-count %.1f ns/pt, fit %.1f ns/pt (%d×%d)\n",
		*out, kt.KeyAssignNsPerPoint, kt.TupleCountNsPerPoint, kt.FitNsPerPoint, kt.Points, kt.Dims)
	if rep.Server != nil {
		fmt.Printf("server: %.0f pts/s ingest, /label p50 %.2f ms p99 %.2f ms (%d pts, %d refits, %d clusters)\n",
			rep.Server.IngestPointsPerSec, rep.Server.QueryP50Ms, rep.Server.QueryP99Ms,
			rep.Server.Points, rep.Server.FinalRefits, rep.Server.FinalClusters)
	}
	if rep.ServerWALInterval != nil && rep.ServerWALNever != nil {
		fmt.Printf("server+wal: %.0f pts/s (fsync=interval), %.0f pts/s (fsync=never)\n",
			rep.ServerWALInterval.IngestPointsPerSec, rep.ServerWALNever.IngestPointsPerSec)
	}
	if rep.HotPath != nil {
		fmt.Printf("hotpath: ingest-batch %.0f pts/s, decode %.0f pts/s, group-commit %.0f recs/s, mul-projection %.0f pts/s\n",
			rep.HotPath.IngestBatchPtsPerSec, rep.HotPath.DecodeBatchPtsPerSec, rep.HotPath.GroupCommitRecsPerSec, rep.HotPath.MulProjectionPtsPerSec)
	}
}

// measureServer boots an in-process keybin2d serving core on a loopback
// socket and drives the client load generator through real HTTP — the
// same path cmd/keybin2d serves, minus process startup. A non-empty
// fsync policy puts a write-ahead log in front of the ack.
func measureServer(points, dims int, seed int64, fsync string) (client.LoadReport, error) {
	ranges := make([][2]float64, dims)
	for i := range ranges {
		ranges[i] = [2]float64{-12, 12}
	}
	cfg := server.Config{
		Stream: core.StreamConfig{
			Config:    core.Config{Seed: seed + 3, Trials: 3},
			Dims:      dims,
			RawRanges: ranges,
			Period:    5000,
		},
		QueueDepth: 256,
		RetryAfter: 20 * time.Millisecond,
	}
	if fsync != "" {
		dir, err := os.MkdirTemp("", "benchwal-*")
		if err != nil {
			return client.LoadReport{}, err
		}
		defer os.RemoveAll(dir)
		cfg.WALDir = dir
		cfg.Fsync = fsync
	}
	srv, err := server.New(cfg)
	if err != nil {
		return client.LoadReport{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return client.LoadReport{}, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	srv.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	rep, err := client.RunLoad(ctx, client.New("http://"+ln.Addr().String()), client.LoadConfig{
		Points: points, Dims: dims, BatchSize: 1024,
		Ingesters: 4, QueryWorkers: 2, Seed: seed + 4,
	})
	if err != nil {
		return rep, err
	}
	if err := hs.Shutdown(ctx); err != nil {
		return rep, err
	}
	return rep, srv.Stop(ctx)
}
