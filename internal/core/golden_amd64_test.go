package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"keybin2/internal/linalg"
	"keybin2/internal/mpi"
	"keybin2/internal/projection"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fit_golden.txt from this build's results")

const goldenPath = "testdata/fit_golden.txt"

// TestFitGolden pins labels and model bytes of fixed-seed fits to digests
// taken before the projection kernel and the block store existed (amd64,
// default GOAMD64): the projection stage may get faster, never different.
// The shapes cover several blocks with a short last one, less than one
// block, an odd input dimension (the kernel's k tail), a sparse projection,
// the unprojected view, and a 2-rank distributed fit.
func TestFitGolden(t *testing.T) {
	mixture := func(rows, dims int, seed int64) *linalg.Matrix {
		data, _ := synth.AutoMixture(5, dims, 6, 1, xrand.New(seed)).Sample(rows, xrand.New(seed+1))
		return data
	}
	serial := func(data *linalg.Matrix, cfg Config) func() (string, error) {
		return func() (string, error) {
			model, labels, err := Fit(data, cfg)
			if err != nil {
				return "", err
			}
			return fitDigest(model, labels), nil
		}
	}
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"fit/5000x64", serial(mixture(5000, 64, 100), Config{Seed: 7})},
		{"fit/700x64", serial(mixture(700, 64, 110), Config{Seed: 8})},
		{"fit/3000x33/achlioptas", serial(mixture(3000, 33, 120), Config{Seed: 9, ProjectionKind: projection.Achlioptas})},
		{"fit/2048x20/noprojection", serial(mixture(2048, 20, 130), Config{Seed: 10, NoProjection: true})},
		{"dist2/5000x64", func() (string, error) {
			data := mixture(5000, 64, 100)
			digests, err := mpi.RunCollect(2, func(c *mpi.Comm) (string, error) {
				local, _ := shardData(data, make([]int, data.Rows), 2, c.Rank())
				model, labels, err := FitDistributed(c, local, Config{Seed: 7})
				if err != nil {
					return "", err
				}
				return fitDigest(model, labels), nil
			})
			return strings.Join(digests, "+"), err
		}},
	}
	got := make(map[string]string)
	for _, c := range cases {
		d, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got[c.name] = d
	}
	if *updateGolden {
		var sb strings.Builder
		for _, c := range cases {
			fmt.Fprintf(&sb, "%s %s\n", c.name, got[c.name])
		}
		if err := os.WriteFile(goldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, digest, _ := strings.Cut(line, " ")
		want[name] = digest
	}
	for _, c := range cases {
		if got[c.name] != want[c.name] {
			t.Errorf("%s: digest %s, golden %s", c.name, got[c.name], want[c.name])
		}
	}
}
