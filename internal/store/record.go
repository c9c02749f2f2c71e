// Package store is the durable, tamper-evident solve store: a pluggable
// persistence layer holding canonical-key (SHA-256, as produced by
// internal/sapcache) → solution-bytes records.
//
// Two implementations share the Store interface: Mem, a mutex-guarded map
// for tests and ephemeral deployments, and File, an append-only segment
// log with size/latency-triggered write batching and an in-memory index
// for O(1) lookup. Every flushed batch's record hashes are combined into
// a Merkle root, and roots are chained batch-to-batch
// (head = H(prev_head ‖ root)), so any record can carry a verifiable
// inclusion proof and any tampering with the log breaks the chain at the
// first altered byte.
//
// Recovery semantics (File): opening a store replays the segment log,
// re-verifying every record hash, batch root and chain link. A torn tail
// — the partial batch a crash mid-flush leaves at the physical end of the
// log — is truncated and recorded in Stats (with an error wrapping
// saperr.ErrCorruptStore) and the open succeeds; corruption anywhere
// before the physical tail is indistinguishable from tampering and fails
// the open with the same typed error. docs/STORAGE.md specifies the
// format and these semantics in full.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"sapalloc/internal/saperr"
)

// Key is the 32-byte content-addressed record key. It has the same
// underlying type as sapcache.Key, so the serving layer converts freely.
type Key [sha256.Size]byte

// Hash is a SHA-256 digest (record leaf hash, Merkle root, chain head).
type Hash [sha256.Size]byte

// MaxValueBytes bounds a single record's value so a corrupt or hostile
// length prefix cannot drive a giant allocation during replay. 64 MiB is
// far above any rendered solve response (request bodies are capped at
// 32 MiB before solving).
const MaxValueBytes = 64 << 20

// recordDomain domain-separates record leaf hashes from the Merkle tree's
// interior node hashes (see merkle.go) and from any other SHA-256 use in
// the repo.
var recordDomain = []byte("sapstore/record\x00")

// RecordHash returns the leaf hash of a (key, value) record:
// SHA-256(domain ‖ key ‖ value).
func RecordHash(k Key, v []byte) Hash {
	h := sha256.New()
	h.Write(recordDomain)
	h.Write(k[:])
	h.Write(v)
	var out Hash
	h.Sum(out[:0])
	return out
}

// Record is one decoded log record.
type Record struct {
	Key   Key
	Value []byte
	Hash  Hash // stored leaf hash; VerifyRecord checks it against Key+Value
}

// EncodedSize returns the on-disk size of a record with a value of n
// bytes: key (32) + length prefix (4) + value + leaf hash (32).
func EncodedSize(n int) int { return sha256.Size + 4 + n + sha256.Size }

// AppendRecord appends the wire encoding of (k, v) to dst and returns the
// extended slice. Layout: key[32] ‖ len(value) uint32 BE ‖ value ‖
// hash[32].
func AppendRecord(dst []byte, k Key, v []byte) []byte {
	dst = append(dst, k[:]...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(v)))
	dst = append(dst, v...)
	h := RecordHash(k, v)
	return append(dst, h[:]...)
}

// ReadRecord decodes one record from r. It returns io.EOF when r is
// exhausted before the first byte, io.ErrUnexpectedEOF when a record is
// cut short, and an error wrapping saperr.ErrCorruptStore when the length
// prefix is implausible or the stored hash does not match the bytes. The
// returned Record owns its Value slice.
func ReadRecord(r io.Reader) (Record, error) {
	var head [sha256.Size + 4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, io.ErrUnexpectedEOF
	}
	n := binary.BigEndian.Uint32(head[sha256.Size:])
	if n > MaxValueBytes {
		return Record{Key: Key(head[:sha256.Size])}, saperr.CorruptStore("record value length %d exceeds %d", n, MaxValueBytes)
	}
	buf := make([]byte, EncodedSize(int(n)))
	copy(buf, head[:])
	if _, err := io.ReadFull(r, buf[len(head):]); err != nil {
		return Record{Key: Key(head[:sha256.Size])}, io.ErrUnexpectedEOF
	}
	return decodeRecord(buf)
}

// decodeRecord decodes one record held at the start of buf without
// copying it: the returned Value aliases buf. Its errors are ReadRecord's
// for a reader over buf.
func decodeRecord(buf []byte) (Record, error) {
	var rec Record
	if len(buf) < sha256.Size+4 {
		if len(buf) == 0 {
			return rec, io.EOF
		}
		return rec, io.ErrUnexpectedEOF
	}
	copy(rec.Key[:], buf)
	n := binary.BigEndian.Uint32(buf[sha256.Size:])
	if n > MaxValueBytes {
		return rec, saperr.CorruptStore("record value length %d exceeds %d", n, MaxValueBytes)
	}
	body := buf[sha256.Size+4:]
	if uint64(len(body)) < uint64(n)+sha256.Size {
		return rec, io.ErrUnexpectedEOF
	}
	rec.Value = body[:n:n]
	copy(rec.Hash[:], body[n:])
	if err := VerifyRecord(rec); err != nil {
		return rec, err
	}
	return rec, nil
}

// VerifyRecord re-hashes the record's key and value and checks the stored
// leaf hash, returning a saperr.ErrCorruptStore-wrapping error on
// mismatch.
func VerifyRecord(rec Record) error {
	if got := RecordHash(rec.Key, rec.Value); got != rec.Hash {
		return saperr.CorruptStore("record hash mismatch for key %x", rec.Key[:8])
	}
	return nil
}

// String renders a hash's short hex prefix for logs.
func (h Hash) String() string { return fmt.Sprintf("%x", h[:8]) }
