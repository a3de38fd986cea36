package main

import (
	"archive/tar"
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianQuartiles(t *testing.T) {
	v := []float64{7, 1, 3, 5, 9, 2, 8, 4, 6, 10}
	if m := median(v); m != 5.5 {
		t.Fatalf("median %v", m)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v", q1, q3)
	}
	if v[0] != 7 {
		t.Fatal("median reordered its input")
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Fatalf("one value: %v %v", q1, q3)
	}
	if median(nil) != 0 {
		t.Fatal("median of nothing")
	}
}

func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		wins, losses int
		want         float64
	}{
		{10, 0, 2.0 / 1024},
		{9, 1, 22.0 / 1024},
		{1, 9, 22.0 / 1024},
		{8, 2, 112.0 / 1024},
		{5, 5, 1},
		{5, 0, 2.0 / 32},
		{0, 0, 1},
	} {
		if got := signTestP(c.wins, c.losses); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%d/%d: p %v, want %v", c.wins, c.losses, got, c.want)
		}
	}
}

func TestCompareVerdict(t *testing.T) {
	base := []float64{2.6, 2.5, 2.7, 2.8, 2.4, 2.9, 3.0, 2.6, 2.7, 2.5}
	scaled := func(f float64, lose ...int) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		for _, i := range lose {
			out[i] = base[i] / f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
		wins   int
	}{
		{"gain 10/10", base, scaled(1.3), "higher", "better", 10},
		{"gain 9/10", base, scaled(1.3, 4), "higher", "better", 9},
		{"gain 8/10", base, scaled(1.3, 4, 7), "higher", "unresolved at 10 pairs", 8},
		{"small gain inside A's spread", base, scaled(1.05), "higher", "unresolved at 10 pairs", 10},
		{"loss", base, scaled(0.7), "higher", "worse", 0},
		{"lower is better", base, scaled(0.7), "lower", "better", 10},
		{"identical", base, base, "higher", "same", 0},
		{"too few pairs", base[:5], scaled(1.3)[:5], "higher", "unresolved at 5 pairs", 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := compare(c.a, c.b, c.better)
			if got.verdict != c.want || got.wins != c.wins {
				t.Fatalf("verdict %q wins %d, want %q %d (%+v)", got.verdict, got.wins, c.want, c.wins, got)
			}
		})
	}
	c := compare([]float64{100, 200, 100}, []float64{110, 180, 100}, "higher")
	if c.dQ1 != -0.1 || c.dQ3 != 0.1 || c.dMed != 0 || c.wins != 1 || c.losses != 1 {
		t.Fatalf("paired deltas %v %v %v", c.dQ1, c.dMed, c.dQ3)
	}
}

func TestUntarStaysInTree(t *testing.T) {
	archive := func(name, body string) *bytes.Buffer {
		var buf bytes.Buffer
		tw := tar.NewWriter(&buf)
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(body)), Typeflag: tar.TypeReg}); err != nil {
			t.Fatal(err)
		}
		tw.Write([]byte(body))
		tw.Close()
		return &buf
	}
	root := t.TempDir()
	if err := untar(archive("bench/run.sh", "echo"), root); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(root, "bench", "run.sh")); err != nil || string(b) != "echo" {
		t.Fatalf("extracted %q, %v", b, err)
	}
	if err := untar(archive("../escape", "x"), root); err == nil || !strings.Contains(err.Error(), "leaves the tree") {
		t.Fatalf("entry outside the tree: %v", err)
	}
}

func TestDirections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	os.WriteFile(path, []byte(`{"end_to_end":[{"name":"pts_per_s","better":"higher"}],"per_layer":[{"name":"core.fit_ms","better":"lower"}]}`), 0o644)
	d, err := directions(path)
	if err != nil || d["pts_per_s"] != "higher" || d["core.fit_ms"] != "lower" || len(d) != 2 {
		t.Fatalf("%v %v", d, err)
	}
}

func TestFailureReport(t *testing.T) {
	log := []byte("bench: seed=9606\nf1 0.8021 ratio\nCHECK FAILED f1_floor: f1 0.8021 < 0.90\n{\"correct\":false}\n")
	if got := checkFailures(log); len(got) != 1 || got[0] != "CHECK FAILED f1_floor: f1 0.8021 < 0.90" {
		t.Fatalf("checkFailures = %q", got)
	}
	if got := checkFailures([]byte("{\"correct\":true}\n")); len(got) != 0 {
		t.Fatalf("checkFailures of a clean run = %q", got)
	}
	failed := []failure{
		{workload: "ingest_wal_read", seed: 9606, side: "A"},
		{workload: "fleet_routed", seed: 9606, side: "B"},
		{workload: "ingest_wal_read", seed: 9606, side: "B"},
		{workload: "ingest_plain", seed: 7101, side: "A"},
	}
	if got := strings.Join(bothSides(failed), ", "); got != "ingest_wal_read seed 9606" {
		t.Fatalf("bothSides = %q", got)
	}
	if got := strings.Join(bothSides(failed[3:]), ", "); got != "none" {
		t.Fatalf("bothSides with no pair failed twice = %q", got)
	}
}
