package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json repeat mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// lastJSONLine parses the result object a run prints last.
func lastJSONLine(out []byte) (jsonResult, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("last line of output is not a result: %w", err)
	}
	return res, nil
}

// worseBy is how much worse b is than a, as a share of a; negative when
// b is better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runRepeat runs n full sets of all workloads — every run a fresh
// process of this same binary, set i on seed+i, workload order reversed
// on odd sets so no workload always runs on a warm or a cold box — and
// prints, per metric and workload, the median, the quartiles and their
// distance as a share of the median: the spread every bound in
// BENCHMARK.json was derived from. It then splits the sets into a first
// and a second half and fails if any metric's second median is worse
// than its first by more than its bound, which is the question the
// driver asks of two runs of one commit.
func runRepeat(w io.Writer, n int, seed int64, seconds float64, smoke bool, benchJSON, dir string) int {
	blob, err := os.ReadFile(benchJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: repeat mode needs the bounds: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", benchJSON, err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}

	// values[workload][metric] holds one value per set, in set order.
	values := make(map[string]map[string][]float64)
	for set := 0; set < n; set++ {
		order := append([]string(nil), workloads...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, wl := range order {
			args := []string{"-workload", wl, "-seed", strconv.FormatInt(seed+int64(set), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-dir", dir}
			if smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d %s: %v\n%s", set, wl, err, out)
				return 1
			}
			res, err := lastJSONLine(out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: set %d %s: %v\n", set, wl, err)
				return 1
			}
			if !res.Correct || res.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: set %d %s: correct=%v failed=%d\n%s", set, wl, res.Correct, res.Failed, out)
				return 1
			}
			if values[wl] == nil {
				values[wl] = make(map[string][]float64)
			}
			var line []string
			for _, d := range endToEnd {
				v := res.Metrics[d.name].Value
				values[wl][d.name] = append(values[wl][d.name], v)
				line = append(line, fmt.Sprintf("%s=%.6g", d.name, v))
			}
			fmt.Fprintf(w, "set %d %-16s %s\n", set, wl, strings.Join(line, " "))
		}
	}

	fmt.Fprintf(w, "\n%-16s %-14s %12s %12s %12s %9s %7s", "workload", "metric", "median", "q1", "q3", "iqr/med", "bound")
	if n >= 2 {
		fmt.Fprintf(w, " %12s %12s %8s", "half1", "half2", "worse")
	}
	fmt.Fprintln(w)
	status := 0
	for _, wl := range workloads {
		for _, m := range bf.EndToEnd {
			v := values[wl][m.Name]
			if len(v) == 0 {
				fmt.Fprintf(os.Stderr, "bench: %s lists %s, which the runs did not report\n", benchJSON, m.Name)
				return 2
			}
			q1, q3 := quartiles(v)
			med := median(v)
			fmt.Fprintf(w, "%-16s %-14s %12.6g %12.6g %12.6g %8.2f%% %6.1f%%", wl, m.Name, med, q1, q3, 100*(q3-q1)/med, 100*m.Bound)
			if n >= 2 {
				h1, h2 := median(v[:n/2]), median(v[n/2:])
				worse := worseBy(h1, h2, m.Better)
				verdict := ""
				if worse > m.Bound {
					verdict = "  DISAGREE"
					status = 1
				}
				fmt.Fprintf(w, " %12.6g %12.6g %7.2f%%%s", h1, h2, 100*worse, verdict)
			}
			fmt.Fprintln(w)
		}
	}
	return status
}
