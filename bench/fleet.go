package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"keybin2/internal/server"
	"keybin2/internal/shardcluster"
)

// node is one in-process keybin2d: the real serving core behind a real
// HTTP server on an ephemeral loopback port.
type node struct {
	srv *server.Server
	hs  *http.Server
	url string
	cfg server.Config
}

// serveLoopback puts h on 127.0.0.1:0 and returns the server and its URL.
func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln) // returns ErrServerClosed from Shutdown; nothing to report
	return hs, "http://" + ln.Addr().String(), nil
}

func bootNode(cfg server.Config) (*node, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	hs, url, err := serveLoopback(srv.Handler())
	if err != nil {
		return nil, err
	}
	srv.Start()
	return &node{srv: srv, hs: hs, url: url, cfg: cfg}, nil
}

// stop shuts the listener and then drains the serving core, the order
// server.Stop asks for.
func (n *node) stop(ctx context.Context) error {
	return errors.Join(n.hs.Shutdown(ctx), n.srv.Stop(ctx))
}

// fleet is the system under test for one serving workload: one daemon,
// or two shards behind a router. front is the URL clients talk to.
type fleet struct {
	nodes  []*node
	router *shardcluster.Router
	rhs    *http.Server
	front  string
}

// daemonConfig is the configuration BENCH_keybin2.json's daemon ran,
// with the two periodic jobs tightened so that each recurs at least
// twice inside every one-second round: no round is the special one that
// happened to hold the checkpoint.
func daemonConfig(workload, dir string, shard int) server.Config {
	cfg := server.Config{
		Stream:     streamConfig(),
		QueueDepth: 256,
		RetryAfter: 5 * time.Millisecond,
	}
	switch workload {
	case "ingest_wal_read":
		cfg.WALDir = filepath.Join(dir, "wal")
		cfg.CheckpointPath = filepath.Join(dir, "stream.ckpt")
		// Also what keeps the WAL bounded: it is truncated at every checkpoint.
		cfg.CheckpointEvery = 400 * time.Millisecond
		cfg.Fsync = "interval"
	case "fleet_routed":
		cfg.NodeID = fmt.Sprintf("bench-node-%d", shard)
		cfg.Shard = fmt.Sprintf("bench-shard-%d", shard)
	}
	return cfg
}

func bootFleet(workload, dir string) (*fleet, error) {
	f := &fleet{}
	shards := 1
	if workload == "fleet_routed" {
		shards = 2
	}
	for i := 0; i < shards; i++ {
		n, err := bootNode(daemonConfig(workload, dir, i))
		if err != nil {
			f.stop(context.Background())
			return nil, err
		}
		f.nodes = append(f.nodes, n)
	}
	f.front = f.nodes[0].url
	if shards > 1 {
		var urls []string
		for _, n := range f.nodes {
			urls = append(urls, n.url)
		}
		// MergeEvery stays 0: the bench calls MergeOnce itself at fixed
		// points of the run, so every round holds the same merges.
		r, err := shardcluster.New(shardcluster.Config{Shards: urls, Stream: streamConfig()})
		if err != nil {
			f.stop(context.Background())
			return nil, err
		}
		hs, url, err := serveLoopback(r.Handler())
		if err != nil {
			f.stop(context.Background())
			return nil, err
		}
		r.Start()
		f.router, f.rhs, f.front = r, hs, url
	}
	return f, nil
}

// seen is the points the fleet has applied, read in-process so that
// watching for the end of a round costs the daemons nothing.
func (f *fleet) seen() int64 {
	var n int64
	for _, nd := range f.nodes {
		n += nd.srv.Stats().Seen
	}
	return n
}

// applyTimeout is how long acknowledged points may take to be applied
// before they count as lost: a full queue drains in a fraction of a second.
const applyTimeout = 30 * time.Second

// waitApplied blocks until the fleet has applied exactly total points.
// More than total is a double-apply; fewer when the deadline passes is a
// loss. Both are correctness failures, reported by the caller.
func (f *fleet) waitApplied(total int64) error {
	deadline := time.Now().Add(applyTimeout)
	for {
		s := f.seen()
		switch {
		case s == total:
			return nil
		case s > total:
			return fmt.Errorf("applied %d points, only %d were acknowledged (double apply)", s, total)
		case time.Now().After(deadline):
			return fmt.Errorf("applied %d of %d acknowledged points after %s (loss)", s, total, applyTimeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (f *fleet) stop(ctx context.Context) error {
	var errs []error
	if f.router != nil {
		errs = append(errs, f.rhs.Shutdown(ctx))
		f.router.Stop()
	}
	for _, n := range f.nodes {
		errs = append(errs, n.stop(ctx))
	}
	return errors.Join(errs...)
}

// fetchDiscard GETs url and reads the body to the end.
func fetchDiscard(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return nil
}
