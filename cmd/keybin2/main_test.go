package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/dataio"
	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func writeDataset(t *testing.T, dir string, withTruth bool) string {
	t.Helper()
	spec := synth.AutoMixture(3, 8, 6, 1, xrand.New(1))
	data, truth := spec.Sample(2000, xrand.New(2))
	path := filepath.Join(dir, "data.csv")
	if withTruth {
		if err := dataio.WriteLabeledFile(path, data, truth, nil); err != nil {
			t.Fatal(err)
		}
	} else {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := dataio.WriteMatrix(f, data, nil); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestRunSerial(t *testing.T) {
	dir := t.TempDir()
	in := writeDataset(t, dir, true)
	out := filepath.Join(dir, "labels.csv")
	if err := run(runOpts{in: in, out: out, trials: 3, seed: 1, ranks: 1, truth: true, describe: true}); err != nil {
		t.Fatal(err)
	}
	m, labels, err := dataio.ReadLabeledFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows != 2000 || len(labels) != 2000 {
		t.Fatalf("output shape %dx%d", m.Rows, m.Cols)
	}
	distinct := map[int]bool{}
	for _, l := range labels {
		distinct[l] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("only %d distinct labels", len(distinct))
	}
}

func TestRunDistributedRanks(t *testing.T) {
	dir := t.TempDir()
	in := writeDataset(t, dir, false)
	out := filepath.Join(dir, "labels.csv")
	if err := run(runOpts{in: in, out: out, trials: 2, seed: 1, ranks: 3, ring: true, commTimeout: time.Minute}); err != nil {
		t.Fatal(err)
	}
	_, labels, err := dataio.ReadLabeledFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2000 {
		t.Fatalf("%d labels", len(labels))
	}
}

func TestRunNoProjection(t *testing.T) {
	dir := t.TempDir()
	in := writeDataset(t, dir, false)
	if err := run(runOpts{in: in, out: filepath.Join(dir, "o.csv"), trials: 1, seed: 1, ranks: 1, noProjection: true, depth: 5, minCluster: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingFile(t *testing.T) {
	err := run(runOpts{in: "/does/not/exist.csv", trials: 3, seed: 1, ranks: 1})
	if err == nil {
		t.Fatal("missing input must fail")
	}
	if !strings.Contains(err.Error(), "exist") && !os.IsNotExist(err) {
		t.Logf("error (ok): %v", err)
	}
}

func TestRunTCPTransport(t *testing.T) {
	dir := t.TempDir()
	in := writeDataset(t, dir, false)
	out := filepath.Join(dir, "labels.csv")
	addrs, err := mpi.FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	tcpAddrs := strings.Join(addrs, ",")
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := runOpts{
				in: in, trials: 2, seed: 1,
				tcpAddrs: tcpAddrs, tcpRank: r,
				commTimeout: time.Minute, dialTimeout: 10 * time.Second,
				maxFrame: 64 << 20,
			}
			if r == 0 {
				o.out = out
			}
			errs[r] = run(o)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("tcp rank %d: %v", r, err)
		}
	}
	_, labels, err := dataio.ReadLabeledFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2000 {
		t.Fatalf("%d labels", len(labels))
	}
}

func TestCommStatsSameOnBothTransports(t *testing.T) {
	// -comm-stats counts the fit's traffic only, so a 2-rank fit reports the
	// same bytes in-process and over TCP; the label gather (O(points) on
	// TCP) is not in either.
	dir := t.TempDir()
	data, err := dataio.ReadMatrixFile(writeDataset(t, dir, false))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Trials: 2, Seed: 1}
	// want is the bare FitDistributed's traffic: what both must report.
	want, err := mpi.RunCollect(2, func(c *mpi.Comm) (mpi.StatsSnapshot, error) {
		lo, hi := synth.Shard(data.Rows, 2, c.Rank())
		local := &linalg.Matrix{Rows: hi - lo, Cols: data.Cols, Data: data.Data[lo*data.Cols : hi*data.Cols]}
		_, _, err := core.FitDistributed(c, local, cfg)
		return c.Stats().Snapshot(), err
	})
	if err != nil {
		t.Fatal(err)
	}
	inproc, _, err := fit(runOpts{ranks: 2, commTimeout: time.Minute}, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addrs, err := mpi.FreeLocalAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	tcp := make([]rankOut, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := runOpts{tcpAddrs: strings.Join(addrs, ","), tcpRank: r, commTimeout: time.Minute, dialTimeout: 10 * time.Second}
			var outs []rankOut
			outs, _, errs[r] = fit(o, data, cfg)
			if errs[r] == nil {
				tcp[r] = outs[0]
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 2; r++ {
		if errs[r] != nil {
			t.Fatalf("tcp rank %d: %v", r, errs[r])
		}
		w, in, over := want[r], inproc[r].stats, tcp[r].stats
		if w.Bytes == 0 || in.Bytes != w.Bytes || over.Bytes != w.Bytes || in.Messages != w.Messages || over.Messages != w.Messages {
			t.Errorf("rank %d: fit %d B / %d msgs, in-process %d B / %d msgs, tcp %d B / %d msgs",
				r, w.Bytes, w.Messages, in.Bytes, in.Messages, over.Bytes, over.Messages)
		}
	}
	if len(tcp[0].labels) != data.Rows || !reflect.DeepEqual(tcp[0].labels, inproc[0].labels) {
		t.Errorf("tcp rank 0 gathered %d labels unlike the in-process ones", len(tcp[0].labels))
	}
}
