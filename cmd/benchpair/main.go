// Command benchpair compares two commits on the benchmark in bench/: it
// builds the benchmark binary at each, runs them in alternating pairs on
// the same seeds, and prints per metric the paired change, its quartiles,
// the win count and a verdict it computes itself.
//
// Usage, from the root of the repo:
//
//	go run ./cmd/benchpair -a HEAD~1 -b HEAD -workload fit_batch -pairs 10 -seed 3101
//	go run ./cmd/benchpair -a HEAD -b . -workload ingest_plain,fleet_routed -pairs 3 -trace 1
//
// A side is a git ref, extracted with `git archive` (local objects only)
// into -dir, or "." for the working tree as it stands. Both binaries are
// built the way bench/run.sh builds them (GOPROXY=off, GOTOOLCHAIN=local,
// caches inside -dir) plus -trimpath and -buildvcs=false, so equal sources
// give equal bytes; the tool prints both sha256 values and stops with
// "same binary" when they match. Pair i runs seed+i, A then B on even
// pairs and B then A on odd ones. A run whose last JSON line says
// "correct":false or failed > 0 fails its pair, which then counts for
// neither side. Each run's full output is kept under -dir/logs; a failed
// run is listed with the CHECK FAILED lines of its log, then one line
// names the seeds that failed on both sides (a floor that depends on the
// seed, not on the change), and the command exits non-zero.
//
// Per metric and workload it prints A's and B's medians, A's quartiles,
// the paired relative change (B−A)/A (median and quartiles), the pairs B
// won and lost in BENCHMARK.json's "better" direction, the two-sided sign
// test's p, and the verdict: better, worse, same, or unresolved at N
// pairs (see compare).
package main

import (
	"archive/tar"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is the JSON object a bench run prints as its last line.
type result struct {
	Correct bool  `json:"correct"`
	Failed  int64 `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// side is one of the two builds under comparison.
type side struct {
	name, ref string
	tree, bin string
}

func main() {
	var (
		refA      = flag.String("a", "HEAD~1", "baseline: a git ref, or . for the working tree")
		refB      = flag.String("b", "HEAD", "candidate: a git ref, or . for the working tree")
		workloads = flag.String("workload", "fit_batch", "comma-separated workloads to pair")
		pairs     = flag.Int("pairs", 10, "pairs per workload")
		seed      = flag.Int64("seed", 1000, "seed of the first pair; pair i runs seed+i")
		seconds   = flag.Float64("seconds", 16, "bench --seconds")
		trace     = flag.Int("trace", 0, "bench --trace")
		smoke     = flag.Bool("smoke", false, "bench --smoke")
		dir       = flag.String("dir", ".bench_build/pair", "where sources, caches, binaries and logs go")
		benchJSON = flag.String("benchmark-json", "BENCHMARK.json", "where each metric's better direction is read from")
	)
	flag.Parse()
	if err := run(os.Stdout, *refA, *refB, strings.Split(*workloads, ","), *pairs, *seed, *seconds, *trace, *smoke, *dir, *benchJSON); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, refA, refB string, workloads []string, pairs int, seed int64, seconds float64, trace int, smoke bool, dir, benchJSON string) error {
	better, err := directions(benchJSON)
	if err != nil {
		return err
	}
	if dir, err = filepath.Abs(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "logs"), 0o755); err != nil {
		return err
	}
	sides := []*side{{name: "A", ref: refA}, {name: "B", ref: refB}}
	sums := make([]string, 2)
	for i, s := range sides {
		if s.tree, err = checkout(s.ref, dir); err != nil {
			return err
		}
		s.bin = filepath.Join(dir, "keybin2-bench-"+s.name)
		if sums[i], err = build(s.tree, s.bin, dir); err != nil {
			return fmt.Errorf("build %s (%s): %w", s.name, s.ref, err)
		}
		fmt.Fprintf(w, "%s  %s  sha256 %s\n", s.name, s.ref, sums[i])
	}
	if sums[0] == sums[1] {
		return errors.New("same binary")
	}

	values := map[string]map[string][2][]float64{} // workload → metric → A, B
	var failed []failure
	for i := 0; i < pairs; i++ {
		s := seed + int64(i)
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, wl := range workloads {
			var res [2]result
			ok := true
			for _, j := range order {
				args := []string{"--workload", wl, "--seed", strconv.FormatInt(s, 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
					"--dir", filepath.Join(dir, "run-"+sides[j].name)}
				if smoke {
					args = append(args, "--smoke")
				}
				log := filepath.Join(dir, "logs", fmt.Sprintf("%s-%d-%s.txt", wl, s, sides[j].name))
				r, err := runBench(sides[j], args, log)
				if err != nil {
					ok = false
					failed = append(failed, failure{wl, s, sides[j].name, err, log})
				}
				res[j] = r
			}
			line := fmt.Sprintf("pair %d seed %d %-15s", i, s, wl)
			if !ok {
				fmt.Fprintln(w, line, "FAILED")
				continue
			}
			if values[wl] == nil {
				values[wl] = map[string][2][]float64{}
			}
			for _, m := range sortedKeys(res[0].Metrics) {
				v := values[wl][m]
				a, b := res[0].Metrics[m].Value, res[1].Metrics[m].Value
				v[0], v[1] = append(v[0], a), append(v[1], b)
				values[wl][m] = v
				line += fmt.Sprintf(" %s %.6g→%.6g", m, a, b)
			}
			fmt.Fprintln(w, line)
		}
	}

	fmt.Fprintf(w, "\n%-15s %-30s %12s %12s %12s %12s %8s %8s %8s %7s %6s  %s\n",
		"workload", "metric", "A median", "B median", "A q1", "A q3", "Δ median", "Δ q1", "Δ q3", "B won", "p", "verdict")
	for _, wl := range workloads {
		for _, m := range sortedKeys(values[wl]) {
			v := values[wl][m]
			direction, ok := better[m]
			if !ok {
				fmt.Fprintf(w, "%-15s %-30s not in %s, skipped\n", wl, m, benchJSON)
				continue
			}
			c := compare(v[0], v[1], direction)
			fmt.Fprintf(w, "%-15s %-30s %12.6g %12.6g %12.6g %12.6g %+7.1f%% %+7.1f%% %+7.1f%% %3d/%-3d %6.3f  %s\n",
				wl, m, c.medA, c.medB, c.q1A, c.q3A, 100*c.dMed, 100*c.dQ1, 100*c.dQ3, c.wins, c.pairs, c.p, c.verdict)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	for _, f := range failed {
		fmt.Fprintf(w, "failed run: %s seed %d %s: %v (log %s)\n", f.workload, f.seed, f.side, f.err, f.log)
		out, _ := os.ReadFile(f.log)
		for _, c := range checkFailures(out) {
			fmt.Fprintln(w, "  ", c)
		}
	}
	fmt.Fprintln(w, "failed on both sides:", strings.Join(bothSides(failed), ", "))
	return fmt.Errorf("%d runs failed", len(failed))
}

// failure is one run that did not finish correct.
type failure struct {
	workload string
	seed     int64
	side     string
	err      error
	log      string
}

// checkFailures returns a run's CHECK FAILED lines.
func checkFailures(out []byte) []string {
	var lines []string
	for _, l := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(l, "CHECK FAILED") {
			lines = append(lines, l)
		}
	}
	return lines
}

// bothSides names the workload and seed of every pair whose runs failed
// on both sides, in order, or "none".
func bothSides(failed []failure) []string {
	runs := map[string]int{}
	var both []string
	for _, f := range failed {
		k := fmt.Sprintf("%s seed %d", f.workload, f.seed)
		if runs[k]++; runs[k] == 2 {
			both = append(both, k)
		}
	}
	if len(both) == 0 {
		return []string{"none"}
	}
	return both
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// directions reads every metric's better direction from BENCHMARK.json.
func directions(path string) (map[string]string, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type metric struct{ Name, Better string }
	var bf struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]string{}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		out[m.Name] = m.Better
	}
	return out, nil
}

// checkout returns the source tree of ref: the working tree for ".", else
// ref's commit extracted from the local object store into dir/src-<sha>
// (once; a later call reuses it).
func checkout(ref, dir string) (string, error) {
	top, err := git("rev-parse", "--show-toplevel")
	if err != nil || ref == "." {
		return top, err
	}
	sha, err := git("rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return "", err
	}
	tree := filepath.Join(dir, "src-"+sha[:12])
	if _, err := os.Stat(filepath.Join(tree, "go.mod")); err == nil {
		return tree, nil
	}
	cmd := exec.Command("git", "archive", "--format=tar", sha)
	cmd.Dir = top
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git archive %s: %w", ref, err)
	}
	return tree, untar(bytes.NewReader(out), tree)
}

// untar writes the regular files and directories of a tar stream under
// root, refusing names that would leave it.
func untar(r io.Reader, root string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		name := filepath.Join(root, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(name, filepath.Clean(root)+string(filepath.Separator)) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			err = os.MkdirAll(name, 0o755)
		case tar.TypeReg:
			err = writeFile(name, tr, os.FileMode(h.Mode)&0o777)
		}
		if err != nil {
			return err
		}
	}
}

func writeFile(name string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(name), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// build compiles tree/bench into bin in bench/run.sh's environment and
// returns the binary's sha256.
func build(tree, bin, dir string) (string, error) {
	cmd := exec.Command("go", "build", "-trimpath", "-buildvcs=false", "-o", bin, ".")
	cmd.Dir = filepath.Join(tree, "bench")
	cmd.Env = append(os.Environ(),
		"GOCACHE="+filepath.Join(dir, "gocache"), "GOPATH="+filepath.Join(dir, "gopath"),
		"XDG_CONFIG_HOME="+filepath.Join(dir, "config"), "GOTOOLCHAIN=local", "GOPROXY=off", "GOFLAGS=")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("%w\n%s", err, out)
	}
	blob, err := os.ReadFile(bin)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// runBench runs one side's binary from its tree, keeps the output in log,
// and returns its last JSON line; a run that did not finish correct and
// with no failed operation is an error.
func runBench(s *side, args []string, log string) (result, error) {
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.tree
	out, runErr := cmd.CombinedOutput()
	if err := os.WriteFile(log, out, 0o644); err != nil {
		return result{}, err
	}
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("no result line (exit: %v)", runErr)
	}
	if !res.Correct || res.Failed > 0 {
		return res, fmt.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	return res, runErr
}

func git(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}
