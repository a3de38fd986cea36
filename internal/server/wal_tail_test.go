package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWALTailPagination: cursor reads must return every record exactly
// once, in order, regardless of how small the per-read byte budget is.
func TestWALTailPagination(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	defer w.Close()
	appendN(t, w, 40, "tail")
	if w.Stats().Segments < 3 {
		t.Fatal("need a multi-segment log")
	}

	cur, err := w.CursorAt(0)
	if err != nil {
		t.Fatal(err)
	}
	type flatRec struct {
		seq   uint64
		entry string // copied: Entry aliases the read buffer
	}
	var got []flatRec
	for rounds := 0; ; rounds++ {
		if rounds > 200 {
			t.Fatal("pagination never terminated")
		}
		recs, next, lastSeq, err := w.ReadTail(cur, 64)
		if err != nil {
			t.Fatal(err)
		}
		if lastSeq != 40 {
			t.Fatalf("lastSeq %d, want 40", lastSeq)
		}
		if len(recs) == 0 {
			break
		}
		for _, r := range recs {
			got = append(got, flatRec{seq: r.Seq, entry: string(r.Entry)})
		}
		cur = next
	}
	if len(got) != 40 {
		t.Fatalf("paged out %d records, want 40", len(got))
	}
	for i, r := range got {
		wantSeq := uint64(i + 1)
		if r.seq != wantSeq {
			t.Fatalf("record %d has seq %d, want %d", i, r.seq, wantSeq)
		}
		if want := fmt.Sprintf("tail-%04d", i); r.entry != want {
			t.Fatalf("seq %d entry %q, want %q", r.seq, r.entry, want)
		}
	}

	// Resuming mid-log skips exactly the applied prefix.
	cur, err = w.CursorAt(35)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := w.ReadTail(cur, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Seq != 36 {
		t.Fatalf("resume at 35 returned %d records starting at %d", len(recs), recs[0].Seq)
	}
}

// TestWALTailTruncatedHistory: a cursor below the truncated head must be
// the typed TailTruncatedError naming the oldest surviving sequence —
// the signal that flips a follower into snapshot bootstrap.
func TestWALTailTruncatedHistory(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	defer w.Close()
	appendN(t, w, 40, "trunc")
	if err := w.TruncateThrough(20); err != nil {
		t.Fatal(err)
	}

	_, err := w.CursorAt(0)
	var te *TailTruncatedError
	if !errors.As(err, &te) {
		t.Fatalf("want TailTruncatedError, got %v", err)
	}
	if te.OldestSeq <= 1 || te.OldestSeq > 21 {
		t.Fatalf("oldest surviving seq %d, want in (1,21]", te.OldestSeq)
	}

	// Exactly at the boundary the cursor works and the read starts at the
	// advertised oldest record.
	cur, err := w.CursorAt(te.OldestSeq - 1)
	if err != nil {
		t.Fatalf("cursor at advertised oldest-1: %v", err)
	}
	recs, _, _, err := w.ReadTail(cur, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].Seq != te.OldestSeq {
		t.Fatalf("read after truncation starts at %d, want %d", recs[0].Seq, te.OldestSeq)
	}
	if last := recs[len(recs)-1].Seq; last != 40 {
		t.Fatalf("read after truncation ends at %d, want 40", last)
	}
}

// TestWALTailCorruptBelowHorizon: a record below the read horizon that no
// longer parses is damage, not the end of a segment. ReadTail must refuse
// with *WALCorruptError and hand back nothing from past the damage —
// never skip to the next segment and serve a log with a hole in it.
func TestWALTailCorruptBelowHorizon(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, func(c *WALConfig) { c.SegmentBytes = 256 })
	defer w.Close()
	appendN(t, w, 40, "dmg")
	if w.Stats().Segments < 3 {
		t.Fatal("need a multi-segment log")
	}
	names, _ := OSFS.ReadDirNames(dir)
	path := filepath.Join(dir, names[0])
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[walHeaderSize+walRecHdrSize+8+2] ^= 0xff // an entry byte of seq 1
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	cur, err := w.CursorAt(0)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := w.ReadTail(cur, 1<<20)
	var ce *WALCorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want WALCorruptError, got %v with %d records", err, len(recs))
	}
	if ce.Segment != names[0] || ce.Offset != walHeaderSize {
		t.Fatalf("damage attributed to %s@%d, want %s@%d", ce.Segment, ce.Offset, names[0], walHeaderSize)
	}
	if len(recs) != 0 {
		t.Fatalf("read past the damage: %d records from seq %d", len(recs), recs[0].Seq)
	}
	// The same rule holds for a reader resuming just below the damage in
	// a later segment: truncate the second segment's tail, which is below
	// the horizon because later segments exist.
	path = filepath.Join(dir, names[1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	first, _ := parseWALSegmentName(names[1])
	if cur, err = w.CursorAt(first - 1); err != nil {
		t.Fatal(err)
	}
	recs, _, _, err = w.ReadTail(cur, 1<<20)
	if !errors.As(err, &ce) || ce.Segment != names[1] || len(recs) != 0 {
		t.Fatalf("torn record below the horizon: err %v, %d records", err, len(recs))
	}
}
