package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/linalg"
)

// storedRecords appends each entry to a fresh WAL and reads the records
// back as the log stores them: Raw is what GET /wal ships.
func storedRecords(tb testing.TB, entries ...[]byte) []TailRecord {
	tb.Helper()
	w, err := OpenWAL(WALConfig{Dir: tb.TempDir(), Fsync: FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	defer w.Close()
	for _, e := range entries {
		if _, err := w.Append(e); err != nil {
			tb.Fatal(err)
		}
	}
	cur, err := w.CursorAt(0)
	if err != nil {
		tb.Fatal(err)
	}
	recs, _, _, err := w.ReadTail(cur, math.MaxInt)
	if err != nil || len(recs) != len(entries) {
		tb.Fatalf("read back %d of %d records: %v", len(recs), len(entries), err)
	}
	return recs
}

// walBody is a GET /wal body: the records' stored bytes back to back.
func walBody(recs ...TailRecord) []byte {
	var b []byte
	for _, r := range recs {
		b = append(b, r.Raw...)
	}
	return b
}

// tailEntry is a WAL entry holding one 50×3 batch.
func tailEntry(seed int) []byte {
	m := linalg.NewMatrix(50, 3)
	for i := range m.Data {
		m.Data[i] = float64((i*7+seed)%19) - 9
	}
	return append(encodeWALEntryHeader(nil, "", 0), EncodeBatch(m)...)
}

// startTailFollower starts a follower of primary whose reconnect backoff
// is short, with its log lines sent to logf; the caller stops it.
func startTailFollower(t *testing.T, primary string, logf func(string, ...any)) *Server {
	t.Helper()
	srv, err := New(Config{
		Stream: core.StreamConfig{
			Config:    core.Config{Seed: 7, Trials: 2},
			Dims:      3,
			RawRanges: [][2]float64{{-12, 12}, {-12, 12}, {-12, 12}},
			Period:    250,
		},
		FollowURL:        primary,
		FollowPoll:       50 * time.Millisecond,
		FollowMaxBackoff: 50 * time.Millisecond,
		Logf:             logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	return srv
}

// TestFollowerRefusesTailGap: tail bytes come from another process, so
// the follower checks sequence continuity itself. A primary whose
// response skips seq 2 must not move the applied horizon over the hole:
// the round fails, and the reconnect resumes from the last applied seq.
func TestFollowerRefusesTailGap(t *testing.T) {
	stored := storedRecords(t, tailEntry(1), tailEntry(2), tailEntry(3))
	recs := []TailRecord{stored[0], stored[2]}
	var mu sync.Mutex
	var froms []string
	third := make(chan struct{}) // closed by the third tail request
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if froms = append(froms, r.URL.Query().Get("from")); len(froms) == 3 {
			close(third)
		}
		mu.Unlock()
		from, _ := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		var out []TailRecord
		for _, rec := range recs {
			if rec.Seq > from {
				out = append(out, rec)
			}
		}
		w.Header().Set("Content-Type", walTailType)
		w.Header().Set("X-KB2-WAL-Last-Seq", "3")
		w.Write(walBody(out...))
	}))
	defer primary.Close()

	srv := startTailFollower(t, primary.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer srv.Stop(ctx)

	select {
	case <-third:
	case <-ctx.Done():
		t.Fatal("the follower stopped retrying the tail")
	}
	st := srv.Stats()
	if st.AppliedSeq != 1 || st.Seen != 50 {
		t.Fatalf("applied seq %d, seen %d across a tail gap; want 1 and 50", st.AppliedSeq, st.Seen)
	}
	if st.TailReconnects == 0 {
		t.Fatal("the refused round did not go through the reconnect backoff")
	}
	mu.Lock()
	defer mu.Unlock()
	if froms[1] != "1" {
		t.Fatalf("retry resumed from %s, want the applied seq 1", froms[1])
	}
}

// TestFollowerRefusesOldTailType: a primary from before GET /wal shipped
// stored records answers with its own framing's content type. The
// follower must refuse the round by its type, naming both types, apply
// nothing — not even valid records behind it — and back off to retry.
func TestFollowerRefusesOldTailType(t *testing.T) {
	body := walBody(storedRecords(t, tailEntry(1))...)
	var requests atomic.Int32
	third := make(chan struct{}) // closed by the third tail request
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) == 3 {
			close(third)
		}
		w.Header().Set("Content-Type", "application/x-kb2-tail")
		w.Header().Set("X-KB2-WAL-Last-Seq", "1")
		w.Write(body)
	}))
	defer primary.Close()

	var mu sync.Mutex
	var logs []string
	srv := startTailFollower(t, primary.URL, func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer srv.Stop(ctx)

	select {
	case <-third:
	case <-ctx.Done():
		t.Fatal("the follower stopped retrying the tail")
	}
	st := srv.Stats()
	if st.AppliedSeq != 0 || st.Seen != 0 {
		t.Fatalf("applied seq %d, seen %d from a refused tail type; want 0 and 0", st.AppliedSeq, st.Seen)
	}
	if st.TailReconnects == 0 {
		t.Fatal("the refused round did not go through the reconnect backoff")
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range logs {
		if strings.Contains(l, "application/x-kb2-tail") && strings.Contains(l, walTailType) {
			return
		}
	}
	t.Fatalf("no log line names both application/x-kb2-tail and %s: %q", walTailType, logs)
}

// FuzzTailFrames drives the follower's GET /wal reader with arbitrary
// response bytes: it must never panic, its record buffer must grow with
// the bytes that arrived rather than with a length prefix's claim, and
// every record it accepts must carry a CRC that verifies.
func FuzzTailFrames(f *testing.F) {
	good := walBody(storedRecords(f, []byte("entry-one"), nil)...)
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:len(good)-11]) // cut mid-record
	flipped := append([]byte(nil), good...)
	flipped[walRecHdrSize+8+2] ^= 0x40 // an entry byte: the CRC no longer matches
	f.Add(flipped)
	claim := binary.LittleEndian.AppendUint32(nil, walMaxRecord)
	f.Add(binary.LittleEndian.AppendUint32(claim, 0)) // 64 MiB claimed, none sent
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := newWALTailReader(bytes.NewReader(data))
		for i := 0; i <= len(data); i++ { // every record consumes a byte
			rec, err := tr.Next()
			if err != nil {
				return
			}
			if c := tr.buf.Cap(); c > 2*len(data)+4096 {
				t.Fatalf("record buffer of %d bytes for a %d-byte body", c, len(data))
			}
			sum := crc32.Checksum(rec.Raw[walRecHdrSize:], walCRCTable)
			if !bytes.Contains(data, rec.Raw) || binary.LittleEndian.Uint32(rec.Raw[4:]) != sum {
				t.Fatalf("accepted seq %d without a verifying CRC", rec.Seq)
			}
		}
		t.Fatal("reader returned more records than the body has bytes")
	})
}

// FuzzWALSegment opens a log whose only segment file holds arbitrary
// bytes, then replays it the way startup does (a cursor at 0, one
// segment per read). The open must refuse with *WALCorruptError or
// succeed, and a successful open must replay contiguous records through
// its last sequence.
func FuzzWALSegment(f *testing.F) {
	seedDir := f.TempDir()
	w, err := OpenWAL(WALConfig{Dir: seedDir, Fsync: FsyncNever})
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range []string{"one", "two", "", "four"} {
		if _, err := w.Append([]byte(e)); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	seg, err := os.ReadFile(filepath.Join(seedDir, walSegmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // torn tail
	f.Add(seg[:walHeaderSize])
	f.Add(seg[:walHeaderSize-2]) // torn header
	flipped := append([]byte(nil), seg...)
	flipped[walHeaderSize+walRecHdrSize] ^= 1 // seq 1 reads as seq 0
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(WALConfig{Dir: dir, Fsync: FsyncNever})
		if err != nil {
			var ce *WALCorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped refusal: %v", err)
			}
			return
		}
		defer w.Close()
		cur, err := w.CursorAt(0)
		next := uint64(1)
		for err == nil {
			var recs []TailRecord
			if recs, cur, _, err = w.readTail(cur, math.MaxInt, true); len(recs) == 0 {
				break
			}
			for _, r := range recs {
				if r.Seq != next {
					t.Fatalf("replay yielded seq %d, want %d", r.Seq, next)
				}
				next++
			}
		}
		if err != nil {
			t.Fatalf("log opened cleanly but replay failed: %v", err)
		}
		if next-1 != w.LastSeq() {
			t.Fatalf("replay ended at seq %d, log ends at %d", next-1, w.LastSeq())
		}
	})
}
