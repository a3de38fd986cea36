package server

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// WAL entry (little endian): producerLen u16 | producer | producerSeq u64
// | raw KB2B batch bytes. The batch rides in its wire form so replay goes
// through the same batch validation as live traffic. The header is framed
// separately (appended into dst, which the ingest path reuses) and handed
// to WAL.Append alongside the raw bytes, so the batch payload is never
// copied on the accept path.
func encodeWALEntryHeader(dst []byte, producer string, pseq uint64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(producer)))
	dst = append(dst, producer...)
	return binary.LittleEndian.AppendUint64(dst, pseq)
}

func decodeWALEntry(entry []byte) (producer string, pseq uint64, raw []byte, err error) {
	if len(entry) < 2 {
		return "", 0, nil, fmt.Errorf("wal entry truncated")
	}
	plen := int(binary.LittleEndian.Uint16(entry))
	if len(entry) < 2+plen+8 {
		return "", 0, nil, fmt.Errorf("wal entry truncated (producer len %d)", plen)
	}
	producer = string(entry[2 : 2+plen])
	pseq = binary.LittleEndian.Uint64(entry[2+plen:])
	raw = entry[2+plen+8:]
	return producer, pseq, raw, nil
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
	out := make([]byte, 0, 1+8+4+len(producers)*24)
	out = append(out, walCkptMetaVersion)
	out = binary.LittleEndian.AppendUint64(out, coveredSeq)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(producers)))
	ids := make([]string, 0, len(producers))
	for p := range producers {
		ids = append(ids, p)
	}
	sort.Strings(ids)
	for _, p := range ids {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(p)))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint64(out, producers[p])
	}
	return out
}

func decodeWALCkptMeta(meta []byte) (walCkptMeta, error) {
	m := walCkptMeta{producers: map[string]uint64{}}
	if len(meta) == 0 {
		return m, nil // v1 checkpoint: no durability metadata
	}
	if meta[0] != walCkptMetaVersion {
		return m, fmt.Errorf("checkpoint meta version %d unsupported", meta[0])
	}
	if len(meta) < 1+8+4 {
		return m, fmt.Errorf("checkpoint meta truncated")
	}
	m.coveredSeq = binary.LittleEndian.Uint64(meta[1:])
	n := int(binary.LittleEndian.Uint32(meta[9:]))
	off := 13
	for i := 0; i < n; i++ {
		if len(meta) < off+2 {
			return m, fmt.Errorf("checkpoint meta truncated at producer %d", i)
		}
		plen := int(binary.LittleEndian.Uint16(meta[off:]))
		off += 2
		if len(meta) < off+plen+8 {
			return m, fmt.Errorf("checkpoint meta truncated at producer %d", i)
		}
		p := string(meta[off : off+plen])
		off += plen
		m.producers[p] = binary.LittleEndian.Uint64(meta[off:])
		off += 8
	}
	if off != len(meta) {
		return m, fmt.Errorf("checkpoint meta has %d trailing bytes", len(meta)-off)
	}
	return m, nil
}
