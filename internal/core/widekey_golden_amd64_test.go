package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/bits"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"keybin2/internal/mpi"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

const wideGoldenPath = "testdata/wide_key_golden.txt"

// TestWideKeyGolden pins the paths whose keys are wider than one 64-bit
// word, as digests taken before the wide keys shared the one-word path:
// a 2-rank fit whose segment tuples need more than 64 bits (every fold
// both ranks exchanged, the model bytes and the labels), a decaying stream
// at 14 projected dimensions, whose 5-bit sketch cells need 70 (labels,
// the checkpoint with its key records sorted, and the encoded fold), and
// the model bytes two Install epochs produce from three such shards.
// -update-golden rewrites the file.
func TestWideKeyGolden(t *testing.T) {
	digest := func(parts ...[]byte) string {
		h := sha256.New()
		for _, p := range parts {
			h.Write(p)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	const dims = 32
	spec := synth.AutoMixture(4, dims, 6, 1, xrand.New(400))
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
	shardCfg := StreamConfig{Config: Config{Seed: 41, Trials: 3, TargetDims: 14}, Dims: dims,
		RawRanges: fixedRanges(dims, -12, 12), Period: 1 << 30}
	cases := []struct {
		name string
		run  func() (string, error)
	}{
		{"dist2/3000x64/wide", func() (string, error) {
			data, _ := synth.AutoMixture(5, 64, 6, 1, xrand.New(140)).Sample(3000, xrand.New(141))
			var mu sync.Mutex
			labels := make([][]byte, 2)
			var model []byte
			folds, err := tappedWorld2(func(c *mpi.Comm) error {
				local, _ := shardData(data, make([]int, data.Rows), 2, c.Rank())
				m, l, err := FitDistributed(c, local, Config{Seed: 11, NoProjection: true})
				if err != nil {
					return err
				}
				if b := tupleBits(m); b <= 64 {
					return fmt.Errorf("tuples take %d bits; the case wants more than one word", b)
				}
				mu.Lock()
				defer mu.Unlock()
				for _, v := range l {
					labels[c.Rank()] = binary.LittleEndian.AppendUint64(labels[c.Rank()], uint64(int64(v)))
				}
				if c.Rank() == 0 {
					model = m.Encode()
				}
				return nil
			})
			if err != nil {
				return "", err
			}
			if len(folds) != 4 {
				return "", fmt.Errorf("%d folds crossed the relay, want two rounds each way", len(folds))
			}
			return digest(folds...) + "+" + digest(model) + "+" + digest(labels...), nil
		}},
		{"stream/decay/nrp14", func() (string, error) {
			st, err := NewStream(StreamConfig{Config: Config{Seed: 42, Trials: 3, TargetDims: 14}, Dims: dims,
				RawRanges: fixedRanges(dims, -12, 12), Period: 700, DecayFactor: 0.9})
			if err != nil {
				return "", err
			}
			labels, err := feed(st, spec.Stream(0, xrand.New(401)), 2500)
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
			return digest(labels) + "+" + digest(canonicalKB2S(t, blob)) + "+" + digest(st.fold().encode()), nil
		}},
		{"install/3shards/nrp14", func() (string, error) {
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
			src := spec.Stream(0, xrand.New(402))
			var epochs []string
			for _, n := range []int{3000, 1500} {
				for i := 0; i < n; i++ {
					x, _, _ := src.Next()
					if _, err := shards[i%len(shards)].Ingest(x); err != nil {
						return "", err
					}
				}
				states := make([][]byte, len(shards))
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
		if err := os.WriteFile(wideGoldenPath, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(wideGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Errorf("wide-key digests moved:\n got:\n%swant:\n%s", sb.String(), want)
	}
}

// tupleBits is the width of a model's packed segment tuple: ⌈log₂ S⌉ bits
// for each dimension the Lilliefors test kept, S its segment count.
func tupleBits(m *Model) int {
	n := 0
	for j, p := range m.Parts {
		if !m.Collapsed[j] {
			n += bits.Len(uint(p.Segments() - 1))
		}
	}
	return n
}

// tappedWorld2 runs fn on both ranks of a two-rank TCP world whose one
// connection passes through a relay, and returns every consolidation fold
// ("KB2H" frame payload) the relay carried: first rank 0's sends in order,
// then rank 1's.
func tappedWorld2(fn func(c *mpi.Comm) error) ([][]byte, error) {
	lns, addrs, err := mpi.FreeLocalListeners(2)
	if err != nil {
		return nil, err
	}
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lns[0].Close()
		lns[1].Close()
		return nil, err
	}
	defer relay.Close()
	var up, down bytes.Buffer // rank 0 → rank 1, rank 1 → rank 0
	var copies sync.WaitGroup
	copies.Add(1)
	go func() {
		defer copies.Done()
		from0, err := relay.Accept()
		if err != nil {
			return
		}
		to1, err := net.Dial("tcp", addrs[1])
		if err != nil {
			from0.Close()
			return
		}
		pipe := func(dst, src net.Conn, keep *bytes.Buffer) {
			defer copies.Done()
			io.Copy(dst, io.TeeReader(src, keep))
			dst.Close()
			src.Close()
		}
		copies.Add(2)
		go pipe(to1, from0, &up)
		go pipe(from0, to1, &down)
	}()
	errs := make([]error, 2)
	var ranks sync.WaitGroup
	for r := range 2 {
		ranks.Add(1)
		go func() {
			defer ranks.Done()
			view := slicesWith(addrs, 1, relay.Addr().String())
			if r == 1 {
				view = addrs
			}
			c, cleanup, err := mpi.DialTCPWithListener(view, r, lns[r], 10*time.Second, mpi.TCPOptions{})
			if err != nil {
				errs[r] = err
				return
			}
			defer cleanup()
			errs[r] = fn(c)
		}()
	}
	ranks.Wait()
	copies.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var folds [][]byte
	for i, stream := range [][]byte{up.Bytes(), down.Bytes()} {
		if i == 0 {
			stream = stream[4:] // rank 0's hello
		}
		for len(stream) >= 12 {
			n := int(binary.LittleEndian.Uint32(stream[8:]))
			payload := stream[12 : 12+n]
			if bytes.HasPrefix(payload, []byte(foldMagic)) {
				folds = append(folds, payload)
			}
			stream = stream[12+n:]
		}
	}
	return folds, nil
}

// slicesWith is a copy of s with s[i] = v.
func slicesWith(s []string, i int, v string) []string {
	out := append([]string(nil), s...)
	out[i] = v
	return out
}
