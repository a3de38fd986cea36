// Package dataio reads and writes the CSV formats the command-line tools
// exchange: numeric feature matrices (one row per point, optional header),
// label columns, and labeled datasets (features plus a trailing integer
// label column).
package dataio

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"keybin2/internal/linalg"
)

// ReadMatrix parses a CSV stream into a matrix. A non-numeric first row is
// treated as a header and skipped. Rows must have equal width.
func ReadMatrix(r io.Reader) (*linalg.Matrix, error) {
	cr := csv.NewReader(bufio.NewReader(r))
	cr.ReuseRecord = true
	var rows [][]float64
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: line %d: %w", line+1, err)
		}
		line++
		vals := make([]float64, len(rec))
		numeric := true
		for i, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				numeric = false
				break
			}
			vals[i] = v
		}
		if !numeric {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("dataio: line %d: non-numeric value", line)
		}
		rows = append(rows, vals)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataio: no data rows")
	}
	return linalg.FromRows(rows)
}

// ReadLabeled parses a CSV whose last column is an integer label.
func ReadLabeled(r io.Reader) (*linalg.Matrix, []int, error) {
	full, err := ReadMatrix(r)
	if err != nil {
		return nil, nil, err
	}
	if full.Cols < 2 {
		return nil, nil, fmt.Errorf("dataio: labeled data needs >= 2 columns, got %d", full.Cols)
	}
	data := linalg.NewMatrix(full.Rows, full.Cols-1)
	labels := make([]int, full.Rows)
	for i := 0; i < full.Rows; i++ {
		copy(data.Row(i), full.Row(i)[:full.Cols-1])
		labels[i] = int(full.At(i, full.Cols-1))
	}
	return data, labels, nil
}

// WriteMatrix writes a matrix as CSV with the given header (nil for none).
func WriteMatrix(w io.Writer, m *linalg.Matrix, header []string) error {
	cw := csv.NewWriter(w)
	if header != nil {
		if err := cw.Write(header); err != nil {
			return err
		}
	}
	rec := make([]string, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteLabeled writes features plus a trailing label column.
func WriteLabeled(w io.Writer, m *linalg.Matrix, labels []int, header []string) error {
	if len(labels) != m.Rows {
		return fmt.Errorf("dataio: %d labels for %d rows", len(labels), m.Rows)
	}
	cw := csv.NewWriter(w)
	if header != nil {
		if err := cw.Write(header); err != nil {
			return err
		}
	}
	rec := make([]string, m.Cols+1)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		rec[m.Cols] = strconv.Itoa(labels[i])
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadMatrixFile opens and parses a CSV file.
func ReadMatrixFile(path string) (*linalg.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrix(f)
}

// ReadLabeledFile opens and parses a labeled CSV file.
func ReadLabeledFile(path string) (*linalg.Matrix, []int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadLabeled(f)
}

// WriteLabeledFile writes a labeled CSV file.
func WriteLabeledFile(path string, m *linalg.Matrix, labels []int, header []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteLabeled(f, m, labels, header)
}
