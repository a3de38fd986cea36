package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"keybin2/internal/trajectory"
)

// CSV writers: machine-readable output alongside the paper-formatted text,
// so downstream plotting (the figures proper) needs no parsing of aligned
// columns.

// WriteRowsCSV emits Table 1/2 rows.
func WriteRowsCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"group", "method", "runs", "clusters", "clusters_ci",
		"recall", "recall_ci", "precision", "precision_ci", "f1", "f1_ci",
		"seconds", "seconds_ci", "skipped", "note"}); err != nil {
		return err
	}
	for _, r := range rows {
		rec := []string{
			r.Group, r.Method, strconv.Itoa(r.Agg.Runs),
			f(r.Agg.Clusters), f(r.Agg.ClustersCI),
			f(r.Agg.Recall), f(r.Agg.RecCI),
			f(r.Agg.Precision), f(r.Agg.PrecCI),
			f(r.Agg.F1), f(r.Agg.F1CI),
			f(r.Agg.Seconds), f(r.Agg.SecondsCI),
			strconv.FormatBool(r.Skipped), r.Note,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure1CSV emits the projection-overlap panels.
func WriteFigure1CSV(w io.Writer, rows []Figure1Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"panel", "overlap_dim0", "overlap_dim1", "separable"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.Panel, f(r.OverlapDim0), f(r.OverlapDim1),
			strconv.FormatBool(r.Separable)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteFigure3CSV emits the per-trajectory timing rows.
func WriteFigure3CSV(w io.Writer, rows []Figure3Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"trajectory", "frames", "residues",
		"keybin2_sec", "kmeans_sec", "dbscan_sec", "keybin2_sec_per_frame", "nmi"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{r.Name, strconv.Itoa(r.Frames), strconv.Itoa(r.Residues),
			f(r.KeyBin2Sec), f(r.KMeansSec), f(r.DBSCANSec), f(r.KeyBin2PerFrame), f(r.Agreement)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSegmentsCSV emits Figure 4 segments (one row per segment, tagged by
// source).
func WriteSegmentsCSV(w io.Writer, res Figure4Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"source", "start", "end", "label"}); err != nil {
		return err
	}
	emit := func(src string, segs []trajectory.Segment) error {
		for _, s := range segs {
			if err := cw.Write([]string{src, strconv.Itoa(s.Start), strconv.Itoa(s.End),
				strconv.Itoa(s.Label)}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("hdr", res.StableSegments); err != nil {
		return err
	}
	if err := emit("fingerprint", res.FingerprintSegments); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return fmt.Sprintf("%g", v) }
