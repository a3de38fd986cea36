// Command keybin2 clusters a CSV dataset with KeyBin2.
//
// Usage:
//
//	keybin2 -in data.csv [-out labels.csv] [-trials 5] [-seed 1]
//	        [-ranks 1] [-ring] [-truth] [-no-projection] [-depth 0]
//	        [-comm-timeout 0] [-tcp-addrs a:p,b:p] [-tcp-rank 0]
//	        [-max-frame 0] [-dial-timeout 30s]
//
// The input is a CSV of numeric features, one point per row (an optional
// header row is skipped). With -truth, the last column is a ground-truth
// integer label used only for evaluation. Every fit is the distributed one:
// -ranks (default 1) in-process message-passing ranks each fit a shard of
// the input, exercising exactly the histogram-only communication path a
// multi-node deployment uses; -ring consolidates histograms around a ring
// instead of a binomial tree.
//
// With -tcp-addrs the fit instead runs over the TCP transport: every
// participating process is started with the same comma-separated address
// list and its own -tcp-rank, shards the input by rank, and rank 0 writes
// the gathered labels. -comm-timeout bounds every receive as a backstop
// against dead or wedged peers (a rank failure surfaces as a RankFailedError
// instead of a hang) and -max-frame caps the accepted wire frame size.
//
// Output (stdout or -out): the input rows with an appended cluster label
// column. A summary with cluster count, the histogram-CH assessment, and —
// when -truth is given — pairwise precision/recall/F1 goes to stderr.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"keybin2/internal/cluster"
	"keybin2/internal/core"
	"keybin2/internal/dataio"
	"keybin2/internal/eval"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
)

// runOpts carries every CLI knob; tests drive run() with it directly.
type runOpts struct {
	in, out      string
	trials       int
	seed         int64
	ranks        int
	ring         bool
	truth        bool
	noProjection bool
	depth        int
	minCluster   int
	describe     bool
	commStats    bool

	commTimeout time.Duration // per-Recv backstop for distributed runs
	tcpAddrs    string        // comma-separated rank addresses; enables TCP transport
	tcpRank     int           // this process's rank when tcpAddrs is set
	maxFrame    int           // TCP max accepted frame payload (0 = default)
	dialTimeout time.Duration // TCP mesh-establishment timeout
}

func main() {
	var o runOpts
	flag.StringVar(&o.in, "in", "", "input CSV (required; '-' for stdin)")
	flag.StringVar(&o.out, "out", "", "output CSV with label column (default stdout)")
	flag.IntVar(&o.trials, "trials", 5, "bootstrap projection trials")
	flag.Int64Var(&o.seed, "seed", 1, "random seed")
	flag.IntVar(&o.ranks, "ranks", 1, "in-process message-passing ranks")
	flag.BoolVar(&o.ring, "ring", false, "ring histogram consolidation (distributed runs)")
	flag.BoolVar(&o.truth, "truth", false, "treat last column as ground-truth label")
	flag.BoolVar(&o.noProjection, "no-projection", false, "skip random projection (KeyBin1 ablation)")
	flag.IntVar(&o.depth, "depth", 0, "binning tree depth (0 = auto from data size)")
	flag.IntVar(&o.minCluster, "min-cluster", 0, "minimum cluster size (0 = auto)")
	flag.BoolVar(&o.describe, "describe", false, "print the fitted model's structure to stderr")
	flag.BoolVar(&o.commStats, "comm-stats", false, "print per-rank communication counters of the fit (messages, bytes, collectives; not the label gather) to stderr; -ranks 1 prints one zero-traffic line")
	flag.DurationVar(&o.commTimeout, "comm-timeout", 0, "per-receive timeout in distributed runs (0 = block; backstop against dead peers)")
	flag.StringVar(&o.tcpAddrs, "tcp-addrs", "", "comma-separated host:port per rank; run over the TCP transport")
	flag.IntVar(&o.tcpRank, "tcp-rank", 0, "this process's rank within -tcp-addrs")
	flag.IntVar(&o.maxFrame, "max-frame", 0, "max accepted TCP frame payload in bytes (0 = default 256 MiB)")
	flag.DurationVar(&o.dialTimeout, "dial-timeout", 30*time.Second, "TCP mesh establishment timeout")
	flag.Parse()
	if o.in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "keybin2:", err)
		os.Exit(1)
	}
}

func run(o runOpts) error {
	var data *linalg.Matrix
	var truthLabels []int
	var err error
	switch {
	case o.in == "-" && o.truth:
		data, truthLabels, err = dataio.ReadLabeled(os.Stdin)
	case o.in == "-":
		data, err = dataio.ReadMatrix(os.Stdin)
	case o.truth:
		data, truthLabels, err = dataio.ReadLabeledFile(o.in)
	default:
		data, err = dataio.ReadMatrixFile(o.in)
	}
	if err != nil {
		return err
	}

	cfg := core.Config{
		Trials:         o.trials,
		Seed:           o.seed,
		Ring:           o.ring,
		NoProjection:   o.noProjection,
		Depth:          o.depth,
		MinClusterSize: o.minCluster,
	}

	start := time.Now()
	outs, firstRank, err := fit(o, data, cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	printCommStats(o, outs, firstRank)
	model, labels := outs[0].model, outs[0].labels
	if model == nil {
		return nil // non-root TCP rank: labels were gathered at rank 0
	}

	fmt.Fprintf(os.Stderr, "points=%d dims=%d clusters=%d trial=%d CH=%.2f time=%s\n",
		data.Rows, data.Cols, model.K(), model.Trial, model.Assessment.CH, elapsed)
	noise := 0
	for _, l := range labels {
		if l == cluster.Noise {
			noise++
		}
	}
	fmt.Fprintf(os.Stderr, "noise points: %d (%.2f%%)\n", noise, 100*float64(noise)/float64(len(labels)))
	if o.describe {
		fmt.Fprint(os.Stderr, model.Describe())
	}
	if o.truth {
		p, r, f1 := eval.PrecisionRecallF1(labels, truthLabels)
		fmt.Fprintf(os.Stderr, "precision=%.3f recall=%.3f f1=%.3f ari=%.3f\n",
			p, r, f1, eval.ARI(labels, truthLabels))
		fmt.Fprint(os.Stderr, eval.RenderReport(eval.Report(labels, truthLabels), 20))
	}

	w := os.Stdout
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return dataio.WriteLabeled(w, data, labels, nil)
}

// rankOut is one rank's result of fitRank.
type rankOut struct {
	model  *core.Model       // rank 0 only
	labels []int             // every row's label, rank 0 only
	stats  mpi.StatsSnapshot // the fit's traffic, without the label gather
}

// fit runs fitRank on every rank this process hosts: the whole in-process
// world of -ranks (one rank by default), or its own rank of the -tcp-addrs
// world. outs[0] belongs to rank firstRank.
func fit(o runOpts, data *linalg.Matrix, cfg core.Config) (outs []rankOut, firstRank int, err error) {
	if o.tcpAddrs == "" {
		outs, err = mpi.RunCollect(max(o.ranks, 1), func(c *mpi.Comm) (rankOut, error) {
			c.SetRecvTimeout(o.commTimeout)
			return fitRank(c, data, cfg)
		})
		return outs, 0, err
	}
	comm, cleanup, err := mpi.DialTCPOpts(strings.Split(o.tcpAddrs, ","), o.tcpRank, o.dialTimeout, mpi.TCPOptions{
		MaxFrame:    o.maxFrame,
		RecvTimeout: o.commTimeout,
	})
	if err != nil {
		return nil, 0, err
	}
	defer cleanup()
	out, err := fitRank(comm, data, cfg)
	return []rankOut{out}, o.tcpRank, err
}

// fitRank is one rank's part of every fit, whatever the transport: it fits
// its shard of the (identical) input with FitDistributed, snapshots the
// fit's traffic, and gathers the label shards at rank 0.
func fitRank(comm *mpi.Comm, data *linalg.Matrix, cfg core.Config) (rankOut, error) {
	lo, hi := synth.Shard(data.Rows, comm.Size(), comm.Rank())
	local := &linalg.Matrix{Rows: hi - lo, Cols: data.Cols, Data: data.Data[lo*data.Cols : hi*data.Cols]}
	model, localLabels, err := core.FitDistributed(comm, local, cfg)
	if err != nil {
		return rankOut{}, err
	}
	out := rankOut{stats: comm.Stats().Snapshot()}
	parts, err := comm.Gather(0, encodeLabels(localLabels))
	if err != nil || comm.Rank() != 0 {
		return out, err
	}
	for _, p := range parts {
		out.labels = append(out.labels, decodeLabels(p)...)
	}
	if len(out.labels) != data.Rows {
		return out, fmt.Errorf("gathered %d labels for %d rows", len(out.labels), data.Rows)
	}
	out.model = model
	return out, nil
}

// printCommStats writes one JSON line per rank with the communication
// counters (messages, bytes, per-collective calls/bytes) to stderr. The
// per-peer breakdown is omitted — it grows with world size and the
// per-collective view is what the paper's volume argument needs.
func printCommStats(o runOpts, outs []rankOut, firstRank int) {
	if !o.commStats {
		return
	}
	for i, out := range outs {
		snap := out.stats
		snap.Peers = nil
		blob, err := json.Marshal(snap)
		if err != nil {
			continue
		}
		fmt.Fprintf(os.Stderr, "comm rank %d: %s\n", firstRank+i, blob)
	}
}

// Labels travel as little-endian int64s (noise is negative).
func encodeLabels(labels []int) []byte {
	buf := make([]byte, 8*len(labels))
	for i, l := range labels {
		binary.LittleEndian.PutUint64(buf[8*i:], uint64(int64(l)))
	}
	return buf
}

func decodeLabels(b []byte) []int {
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[8*i:])))
	}
	return out
}
