package main

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/core"
	"keybin2/internal/daemon"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

func baseOpts() daemonOpts {
	o := daemonOpts{
		Flags:    daemon.Flags{Addr: "127.0.0.1:0"},
		rawRange: "-12,12", drainAfter: 30 * time.Second,
	}
	o.cfg.Stream.Dims, o.cfg.Stream.Trials, o.cfg.Stream.Seed, o.cfg.Stream.Period = 4, 2, 9, 250
	o.cfg.QueueDepth, o.cfg.MaxBatchPoints = 32, 65536
	o.cfg.RetryAfter, o.cfg.CheckpointEvery = 50*time.Millisecond, time.Hour
	return o
}

// TestBuildConfigValidation pins the CLI-level rejections: missing dims,
// malformed -range, out-of-range decay, the swapped period/warmup pair
// and a WAL without a checkpoint surface before any socket is opened.
func TestBuildConfigValidation(t *testing.T) {
	mut := func(f func(*daemonOpts)) daemonOpts {
		o := baseOpts()
		f(&o)
		return o
	}
	cases := []struct {
		name string
		o    daemonOpts
		want string // error substring ("" = valid)
	}{
		{"valid", baseOpts(), ""},
		{"missing dims", mut(func(o *daemonOpts) { o.cfg.Stream.Dims = 0 }), "-dims"},
		{"bad range", mut(func(o *daemonOpts) { o.rawRange = "low,high" }), "-range"},
		{"reversed range", mut(func(o *daemonOpts) { o.rawRange = "5,-5" }), "-range"},
		{"decay too big", mut(func(o *daemonOpts) { o.cfg.Stream.DecayFactor = 1.5 }), "DecayFactor"},
		{"depth too deep", mut(func(o *daemonOpts) { o.cfg.Stream.Depth = 17 }), "Depth"},
		{"deepest depth", mut(func(o *daemonOpts) { o.cfg.Stream.Depth = 16 }), ""},
		{"period under warmup", mut(func(o *daemonOpts) {
			o.rawRange = ""
			o.cfg.Stream.Warmup = 1000
			o.cfg.Stream.Period = 200
		}), "warmup"},
		{"wal without checkpoint", mut(func(o *daemonOpts) { o.cfg.WALDir = "wal" }), "-wal-dir needs -checkpoint"},
		{"wal with checkpoint", mut(func(o *daemonOpts) { o.cfg.WALDir, o.cfg.CheckpointPath = "wal", "state.kb2s" }), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildConfig(tc.o)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("valid flags rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error mentioning %q, got %v", tc.want, err)
			}
		})
	}
	// The period/warmup case must be core's typed error.
	o := baseOpts()
	o.rawRange, o.cfg.Stream.Warmup, o.cfg.Stream.Period = "", 1000, 200
	_, err := buildConfig(o)
	var sce *core.StreamConfigError
	if !errors.As(err, &sce) {
		t.Fatalf("want StreamConfigError through the CLI, got %v", err)
	}
}

// TestDaemonLifecycle boots the daemon on an ephemeral port, drives real
// traffic through the client, stops it, and restarts from the checkpoint
// asserting the state survived.
func TestDaemonLifecycle(t *testing.T) {
	dir := t.TempDir()
	o := baseOpts()
	o.cfg.CheckpointPath = filepath.Join(dir, "state.kb2s")

	boot := func() (*client.Client, chan struct{}, chan error) {
		stop := make(chan struct{})
		ready := make(chan net.Addr, 1)
		errc := make(chan error, 1)
		go func() { errc <- run(o, stop, ready) }()
		select {
		case addr := <-ready:
			return client.New("http://" + addr.String()), stop, errc
		case err := <-errc:
			t.Fatalf("daemon died on boot: %v", err)
			return nil, nil, nil
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	c, stop, errc := boot()
	spec := synth.AutoMixture(3, 4, 6, 1, xrand.New(31))
	rng := xrand.New(32)
	for i := 0; i < 6; i++ {
		batch, _ := spec.Sample(200, rng)
		if _, err := c.Ingest(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitSeen(ctx, 1200); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-errc; err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}

	c2, stop2, errc2 := boot()
	st, err := c2.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Seen != 1200 || st.Refits == 0 {
		t.Fatalf("restart lost state: %+v", st)
	}
	close(stop2)
	if err := <-errc2; err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}
