package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"sort"
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
		{"fit/3000x64/strings", func() (string, error) {
			// Sixty-four raw dimensions, most of them cut: the tuples are
			// wider than 64 bits and take a key of more than one word.
			model, labels, err := Fit(mixture(3000, 64, 140), Config{Seed: 11, NoProjection: true})
			if err != nil {
				return "", err
			}
			if model.lab.words() < 2 {
				return "", fmt.Errorf("tuples pack into one word; the case wants a wider key")
			}
			return fitDigest(model, labels), nil
		}},
		{"fit/5000x64/suppress", serial(mixture(5000, 64, 100), Config{Seed: 7, SuppressBelow: 3})},
		{"dist2/2500x12/noprojection", func() (string, error) {
			data := mixture(2500, 12, 150)
			digests, err := mpi.RunCollect(2, func(c *mpi.Comm) (string, error) {
				local, _ := shardData(data, make([]int, data.Rows), 2, c.Rank())
				model, labels, err := FitDistributed(c, local, Config{Seed: 12, NoProjection: true})
				if err != nil {
					return "", err
				}
				return fitDigest(model, labels), nil
			})
			return strings.Join(digests, "+"), err
		}},
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

const streamGoldenPath = "testdata/stream_golden.txt"

// canonicalKB2S returns a stream checkpoint with each trial's key records
// sorted. Encode walks each sketch in insertion order; the digests were
// taken when wide sketches were walked in Go's randomized map order, so
// records are sorted to compare them. Everything else — header, model,
// histogram frames, every record's bytes — is kept as written.
func canonicalKB2S(t *testing.T, b []byte) []byte {
	t.Helper()
	r := &wireReader{buf: b, off: 4}
	skip := func(n int) {
		if !r.need(n) {
			t.Fatalf("checkpoint: %v", r.err)
		}
		r.off += n
	}
	version := r.u32()
	skip(8 + 4) // seen, nextID
	if version >= 2 {
		skip(int(r.u32()))
	}
	if r.u8() == 1 {
		skip(int(r.u32()))
	}
	trials := int(r.u32())
	out := append([]byte(nil), b[:r.off]...)
	for i := 0; i < trials; i++ {
		start := r.off
		skip(int(r.u32()))
		nkeys := int(r.u32())
		out = append(out, b[start:r.off]...)
		recs := make([]string, nkeys)
		for k := range recs {
			recStart := r.off
			skip(4*int(r.u32()) + 8)
			recs[k] = string(b[recStart:r.off])
		}
		sort.Strings(recs)
		out = append(out, strings.Join(recs, "")...)
	}
	if r.err != nil || r.off != len(b) || len(out) != len(b) {
		t.Fatalf("checkpoint: walked %d of %d bytes (%v)", r.off, len(b), r.err)
	}
	return out
}

// TestStreamGolden pins what the consolidation fold must not move, as
// digests taken before the fold existed: a stream's KB2S checkpoint bytes
// and its label sequence across refit boundaries (warmup ranges; fixed
// ranges with decay, whose masses are fractional), the model bytes two
// Install epochs produce from three shard states, and the model bytes of
// three ranks across two SyncDistributed calls (the delta path).
func TestStreamGolden(t *testing.T) {
	spec := synth.AutoMixture(4, 8, 6, 1, xrand.New(300))
	digest := func(parts ...[]byte) string {
		h := sha256.New()
		for _, p := range parts {
			h.Write(p)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	feed := func(st *Stream, src *synth.MixtureStream, n int) ([]byte, error) {
		var labels []byte
		for i := 0; i < n; i++ {
			x, _, _ := src.Next()
			l, err := st.Ingest(x)
			if err != nil {
				return nil, err
			}
			labels = binary.LittleEndian.AppendUint64(labels, uint64(int64(l)))
		}
		return labels, nil
	}
	checkpointed := func(cfg StreamConfig, n int) func() (string, error) {
		return func() (string, error) {
			st, err := NewStream(cfg)
			if err != nil {
				return "", err
			}
			labels, err := feed(st, spec.Stream(0, xrand.New(301)), n)
			if err != nil {
				return "", err
			}
			if st.Refits() < 2 {
				return "", fmt.Errorf("%d refits, want at least two boundaries crossed", st.Refits())
			}
			blob, err := st.Encode()
			if err != nil {
				return "", err
			}
			return digest(labels) + "+" + digest(canonicalKB2S(t, blob)), nil
		}
	}
	shardCfg := StreamConfig{Config: Config{Seed: 7, Trials: 3}, Dims: 8,
		RawRanges: fixedRanges(8, -12, 12), Period: 1 << 30}
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"stream/warmup", checkpointed(StreamConfig{Config: Config{Seed: 5, Trials: 3}, Dims: 8,
			Warmup: 500, Period: 1000}, 2700)},
		{"stream/decay", checkpointed(StreamConfig{Config: Config{Seed: 6, Trials: 3}, Dims: 8,
			RawRanges: fixedRanges(8, -12, 12), Period: 700, DecayFactor: 0.9}, 2500)},
		{"install/3shards", func() (string, error) {
			global, err := NewGlobalModelState(shardCfg)
			if err != nil {
				return "", err
			}
			shards := make([]*Stream, 3)
			for i := range shards {
				if shards[i], err = NewStream(shardCfg); err != nil {
					return "", err
				}
			}
			src := spec.Stream(0, xrand.New(302))
			var epochs []string
			for _, n := range []int{3000, 1500} {
				states := make([][]byte, len(shards))
				for i := 0; i < n; i++ {
					x, _, _ := src.Next()
					if _, err := shards[i%len(shards)].Ingest(x); err != nil {
						return "", err
					}
				}
				for i, sh := range shards {
					if states[i], err = sh.EncodeShardState(); err != nil {
						return "", err
					}
				}
				merged, err := MergeShardStates(states...)
				if err != nil {
					return "", err
				}
				model, err := global.Install(merged)
				if err != nil {
					return "", err
				}
				epochs = append(epochs, digest(model.Encode(), []byte(fmt.Sprint(global.Seen()))))
			}
			return strings.Join(epochs, "+"), nil
		}},
		{"sync/3ranks", func() (string, error) {
			digests, err := mpi.RunCollect(3, func(c *mpi.Comm) (string, error) {
				st, err := NewStream(shardCfg)
				if err != nil {
					return "", err
				}
				src := spec.Stream(0, xrand.New(int64(303+c.Rank())))
				var syncs []string
				for _, n := range []int{1200, 600} {
					if _, err := feed(st, src, n); err != nil {
						return "", err
					}
					if err := st.SyncDistributed(c); err != nil {
						return "", err
					}
					syncs = append(syncs, digest(st.Model().Encode(), []byte(fmt.Sprint(st.Seen()))))
				}
				return strings.Join(syncs, "+"), nil
			})
			if err != nil {
				return "", err
			}
			for _, d := range digests[1:] {
				if d != digests[0] {
					return "", fmt.Errorf("ranks disagree: %v", digests)
				}
			}
			return digests[0], nil
		}},
	}
	var sb strings.Builder
	for _, c := range cases {
		d, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&sb, "%s %s\n", c.name, d)
	}
	if *updateGolden {
		if err := os.WriteFile(streamGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(streamGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("stream digests moved:\n got:\n%swant:\n%s", sb.String(), want)
	}
}
