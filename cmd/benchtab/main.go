// Command benchtab regenerates the paper's tables and figures.
//
// Usage:
//
//	benchtab -exp all                        # everything, scaled sizes
//	benchtab -exp table1 -full               # Table 1 at paper scale
//	benchtab -exp table2,figure3 -seed 7
//	benchtab -exp headline -full -points 40000   # the headline design point alone
//
// Experiments: table1, table2, table3, figure1, figure2, figure3, figure4,
// ablationA, ablationB, ablationC, ablationD, all, and headline, which all
// leaves out: one KeyBin2 fit at the last rung of the dimension ladder on
// every rank of Table 1.
//
// Default sizing keeps the paper's experimental design (the same dimension
// ladder, process doubling, methods, and metrics) at sizes that finish in
// minutes; -full selects the paper-scale grid (80,000 points per process,
// 20 repeats, 16 ranks — hours of CPU).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"keybin2/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment list or 'all'")
		full      = flag.Bool("full", false, "paper-scale sizes (hours of CPU)")
		seed      = flag.Int64("seed", 1, "random seed")
		repeats   = flag.Int("repeats", 0, "override repeats per design point")
		points    = flag.Int("points", 0, "override points per process")
		workers   = flag.Int("workers", 0, "worker goroutines per algorithm (0 = GOMAXPROCS)")
		dbscanAll = flag.Bool("dbscan-all", false, "run distributed PDSDBSCAN at every process count (paper left these cells empty)")
		csvDir    = flag.String("csv", "", "also write machine-readable CSVs into this directory")
		verify    = flag.Bool("verify", false, "re-check the paper's qualitative shape claims and exit nonzero on violation")
	)
	flag.Parse()
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			exitOn(err)
		}
	}

	scale := experiments.Default()
	if *full {
		scale = experiments.Paper()
	}
	scale.Seed = *seed
	scale.Workers = *workers
	if *repeats > 0 {
		scale.Repeats = *repeats
	}
	if *points > 0 {
		scale.PointsPerProc = *points
	}
	scale.RunDistributedDBSCAN = *dbscanAll

	want := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	all := want["all"]
	ran := 0

	if all || want["table1"] {
		rows := experiments.Table1(scale)
		fmt.Println(experiments.RenderTable("Table 1: fixed processes, growing dimensionality", rows))
		writeCSV(*csvDir, "table1.csv", func(w *os.File) error { return experiments.WriteRowsCSV(w, rows) })
		ran++
	}
	if all || want["table2"] {
		rows := experiments.Table2(scale)
		fmt.Println(experiments.RenderTable("Table 2: fixed dimensionality, doubling processes (weak scaling)", rows))
		writeCSV(*csvDir, "table2.csv", func(w *os.File) error { return experiments.WriteRowsCSV(w, rows) })
		ran++
	}
	if all || want["table3"] {
		fmt.Println(experiments.RenderTable3(experiments.Table3(scale)))
		ran++
	}
	if all || want["figure1"] {
		rows := experiments.Figure1(scale)
		fmt.Println(experiments.RenderFigure1(rows))
		writeCSV(*csvDir, "figure1.csv", func(w *os.File) error { return experiments.WriteFigure1CSV(w, rows) })
		ran++
	}
	if all || want["figure2"] {
		res, err := experiments.Figure2(scale)
		exitOn(err)
		fmt.Println(experiments.RenderFigure2(res))
		ran++
	}
	if all || want["figure3"] {
		rows, err := experiments.Figure3(scale, 0) // all 31 trajectories
		exitOn(err)
		fmt.Println(experiments.RenderFigure3(rows))
		writeCSV(*csvDir, "figure3.csv", func(w *os.File) error { return experiments.WriteFigure3CSV(w, rows) })
		ran++
	}
	if all || want["figure4"] {
		res, err := experiments.Figure4(scale)
		exitOn(err)
		fmt.Println(experiments.RenderFigure4(res))
		writeCSV(*csvDir, "figure4_segments.csv", func(w *os.File) error { return experiments.WriteSegmentsCSV(w, res) })
		ran++
	}
	if all || want["ablationa"] {
		fmt.Println(experiments.RenderAblationA(experiments.AblationA(scale)))
		ran++
	}
	if all || want["ablationb"] {
		fmt.Println(experiments.RenderAblationB(experiments.AblationB(scale)))
		ran++
	}
	if all || want["ablationc"] {
		fmt.Println(experiments.RenderAblationC(experiments.AblationC(scale)))
		ran++
	}
	if all || want["ablationd"] {
		fmt.Println(experiments.RenderAblationD(experiments.AblationD(scale)))
		ran++
	}
	if want["headline"] {
		res, err := experiments.Headline(scale)
		exitOn(err)
		fmt.Println(experiments.RenderHeadline(res))
		ran++
	}
	if *verify {
		violations := experiments.VerifyShapeClaims(scale)
		fmt.Print(experiments.RenderVerify(violations))
		if len(violations) > 0 {
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchtab: no experiment matched %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}

// writeCSV writes one experiment's CSV into dir (no-op when dir is empty).
func writeCSV(dir, name string, fn func(w *os.File) error) {
	if dir == "" {
		return
	}
	f, err := os.Create(filepath.Join(dir, name))
	exitOn(err)
	defer f.Close()
	exitOn(fn(f))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}
