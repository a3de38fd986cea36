package server

import (
	"fmt"
	"sort"

	"keybin2/internal/wire"
)

// WAL entry (little endian): producerLen u16 | producer | producerSeq u64
// | raw KB2B batch bytes. The batch rides in its wire form so replay goes
// through the same batch validation as live traffic. The header is framed
// separately (appended into dst, which the ingest path reuses) and handed
// to WAL.Append alongside the raw bytes, so the batch payload is never
// copied on the accept path.
func encodeWALEntryHeader(dst []byte, producer string, pseq uint64) []byte {
	w := wire.Writer{Buf: dst}
	w.U16(uint16(len(producer)))
	w.Str(producer)
	w.U64(pseq)
	return w.Buf
}

func decodeWALEntry(entry []byte) (producer string, pseq uint64, raw []byte, err error) {
	r := wire.NewReader("wal entry", entry)
	producer = string(r.Bytes(int(r.U16())))
	pseq = r.U64()
	raw = r.Bytes(r.Left())
	return producer, pseq, raw, r.Err()
}

// Checkpoint metadata (the v2 stream-checkpoint meta section): version u8
// | coveredSeq u64 | nproducers u32 | per producer: len u16 | id | seq
// u64. coveredSeq is the newest WAL sequence whose batch is contained in
// the checkpointed stream; the producer map restores the idempotency
// horizon so replayed or retried duplicates stay deduplicated across
// restarts. Producers are written in ascending order, so one state always
// encodes to the same bytes; the decoder accepts any order.
const walCkptMetaVersion = 1

type walCkptMeta struct {
	coveredSeq uint64
	producers  map[string]uint64
}

func encodeWALCkptMeta(coveredSeq uint64, producers map[string]uint64) []byte {
	w := wire.Writer{Buf: make([]byte, 0, 1+8+4+len(producers)*24)}
	w.U8(walCkptMetaVersion)
	w.U64(coveredSeq)
	w.U32(uint32(len(producers)))
	ids := make([]string, 0, len(producers))
	for p := range producers {
		ids = append(ids, p)
	}
	sort.Strings(ids)
	for _, p := range ids {
		w.U16(uint16(len(p)))
		w.Str(p)
		w.U64(producers[p])
	}
	return w.Buf
}

func decodeWALCkptMeta(meta []byte) (walCkptMeta, error) {
	m := walCkptMeta{producers: map[string]uint64{}}
	if len(meta) == 0 {
		return m, nil // v1 checkpoint: no durability metadata
	}
	r := wire.NewReader("checkpoint meta", meta)
	if v := r.U8(); v != walCkptMetaVersion {
		return m, fmt.Errorf("checkpoint meta version %d unsupported", v)
	}
	m.coveredSeq = r.U64()
	n := r.Count(r.U32(), 2+8)
	for i := 0; i < n && r.Err() == nil; i++ {
		p := string(r.Bytes(int(r.U16())))
		m.producers[p] = r.U64()
	}
	return m, r.Done()
}
