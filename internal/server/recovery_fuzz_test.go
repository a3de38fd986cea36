package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"keybin2/internal/core"
	"keybin2/internal/linalg"
)

// kb2tRecordFrame frames one record as GET /wal does: 'R' | seq | len |
// entry | crc32c(seq‖entry).
func kb2tRecordFrame(seq uint64, entry []byte) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{tailFrameRecord}, seq)
	crc := crc32.Update(crc32.Checksum(b[1:9], walCRCTable), walCRCTable, entry)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(entry)))
	b = append(b, entry...)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// kb2tBody is a whole tail response: the stream header, one 'S' frame,
// the records, and the 'E' frame naming lastSeq.
func kb2tBody(recs []TailRecord, lastSeq uint64) []byte {
	b := binary.LittleEndian.AppendUint32([]byte(tailMagic), tailProtoVersion)
	b = binary.LittleEndian.AppendUint64(append(b, tailFrameSegment), 1)
	for _, r := range recs {
		b = append(b, kb2tRecordFrame(r.Seq, r.Entry)...)
	}
	return binary.LittleEndian.AppendUint64(append(b, tailFrameEnd), lastSeq)
}

// TestFollowerRefusesTailGap: tail bytes come from another process, so
// the follower checks sequence continuity itself. A primary whose
// response skips seq 2 must not move the applied horizon over the hole:
// the round fails, and the reconnect resumes from the last applied seq.
func TestFollowerRefusesTailGap(t *testing.T) {
	entry := func(seed int) []byte {
		m := linalg.NewMatrix(50, 3)
		for i := range m.Data {
			m.Data[i] = float64((i*7+seed)%19) - 9
		}
		return append(encodeWALEntryHeader(nil, "", 0), EncodeBatch(m)...)
	}
	recs := []TailRecord{{Seq: 1, Entry: entry(1)}, {Seq: 3, Entry: entry(3)}}
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
		w.Write(kb2tBody(out, 3))
	}))
	defer primary.Close()

	srv, err := New(Config{
		Stream: core.StreamConfig{
			Config:    core.Config{Seed: 7, Trials: 2},
			Dims:      3,
			RawRanges: [][2]float64{{-12, 12}, {-12, 12}, {-12, 12}},
			Period:    250,
		},
		FollowURL:        primary.URL,
		FollowPoll:       50 * time.Millisecond,
		FollowMaxBackoff: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
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

// FuzzTailFrames drives the follower's KB2T reader with arbitrary
// response bytes: it must never panic, its entry buffer must grow with
// the bytes that arrived rather than with a length prefix's claim, and
// every record it accepts must carry a CRC that verifies.
func FuzzTailFrames(f *testing.F) {
	good := kb2tBody([]TailRecord{{Seq: 1, Entry: []byte("entry-one")}, {Seq: 2}}, 2)
	f.Add(good)
	f.Add(kb2tBody(nil, 0))
	f.Add(good[:len(good)-11]) // cut mid-record
	flipped := append([]byte(nil), good...)
	flipped[30] ^= 0x40 // an entry byte: the CRC no longer matches
	f.Add(flipped)
	claim := binary.LittleEndian.AppendUint64(append(kb2tBody(nil, 0)[:8], tailFrameRecord), 1)
	f.Add(binary.LittleEndian.AppendUint32(claim, walMaxRecord)) // 64 MiB claimed, none sent
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := newTailFrameReader(bytes.NewReader(data))
		for i := 0; i <= len(data); i++ { // every frame consumes a byte
			frame, err := fr.Next()
			if err != nil {
				return
			}
			if c := fr.buf.Cap(); c > 2*len(data)+4096 {
				t.Fatalf("entry buffer of %d bytes for a %d-byte body", c, len(data))
			}
			if frame.Kind == tailFrameRecord && !bytes.Contains(data, kb2tRecordFrame(frame.Seq, frame.Entry)) {
				t.Fatalf("accepted seq %d without a verifying CRC", frame.Seq)
			}
		}
		t.Fatal("reader returned more frames than the body has bytes")
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
