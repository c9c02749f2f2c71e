package store

import (
	"bytes"
	"crypto/sha256"
	"io"
	"testing"
)

// FuzzStoreRecord drives the record codec and the batch chain with
// arbitrary bytes in both directions: encode→decode must round-trip
// exactly, decode of mutated bytes must never return a record whose
// stored hash verifies against altered content, and the chain head over
// the original and mutated records must diverge whenever the record
// content does. decodeRecord, the in-place decode of File reads, must agree
// with ReadRecord on every encoding, mutation and truncation. Wired into
// check.sh fuzz and the CI fuzz-smoke job.
func FuzzStoreRecord(f *testing.F) {
	f.Add([]byte("seed-key-material"), []byte("seed-value"), uint8(0), uint8(0))
	f.Add([]byte(""), []byte(""), uint8(5), uint8(0xff))
	f.Add(bytes.Repeat([]byte{0xA5}, 64), bytes.Repeat([]byte{0x5A}, 300), uint8(33), uint8(1))
	f.Fuzz(func(t *testing.T, keySeed, value []byte, mutPos, mutBit uint8) {
		k := Key(sha256.Sum256(keySeed))
		enc := AppendRecord(nil, k, value)
		if len(enc) != EncodedSize(len(value)) {
			t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), EncodedSize(len(value)))
		}

		// Round-trip.
		sameDecode(t, enc)
		rec, err := ReadRecord(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode of fresh encoding failed: %v", err)
		}
		if rec.Key != k || !bytes.Equal(rec.Value, value) {
			t.Fatal("round-trip mismatch")
		}
		if err := VerifyRecord(rec); err != nil {
			t.Fatalf("fresh record does not verify: %v", err)
		}

		// Chain verification: the head over the original record...
		leaf := RecordHash(k, value)
		root := MerkleRoot([]Hash{leaf})
		head := ChainHead(Hash{}, root)

		// ...must diverge for any single-bit mutation of the encoding
		// that still decodes (and almost none should decode: the stored
		// hash covers key and value; only flips inside the stored hash
		// itself leave key+value intact, and those fail VerifyRecord).
		mut := append([]byte(nil), enc...)
		pos := int(mutPos) % len(mut)
		bit := byte(1) << (mutBit % 8)
		mut[pos] ^= bit
		sameDecode(t, mut)
		mrec, err := ReadRecord(bytes.NewReader(mut))
		if err == nil {
			// The only way a mutated encoding decodes without error is a
			// same-length value whose bytes all re-verify — impossible
			// for a single bit flip unless SHA-256 collides.
			t.Fatalf("single-bit mutation at byte %d decoded cleanly", pos)
		}
		// Even when decode fails, a chain built over whatever content the
		// mutation implies must not reproduce the original head.
		if mrec.Key != k || !bytes.Equal(mrec.Value, value) {
			mleaf := RecordHash(mrec.Key, mrec.Value)
			mhead := ChainHead(Hash{}, MerkleRoot([]Hash{mleaf}))
			if mhead == head {
				t.Fatal("mutated record chains to the original head")
			}
		}

		// Truncations must error, never hang or mis-decode.
		for _, cut := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
			if cut >= len(enc) {
				continue
			}
			sameDecode(t, enc[:cut])
			if _, err := ReadRecord(bytes.NewReader(enc[:cut])); err == nil {
				t.Fatalf("truncation to %d bytes decoded cleanly", cut)
			} else if cut == 0 && err != io.EOF {
				t.Fatalf("empty reader: err = %v, want io.EOF", err)
			}
		}
	})
}

// sameDecode checks that decodeRecord decodes buf as ReadRecord does: the
// same record, or an error with the same text.
func sameDecode(t *testing.T, buf []byte) {
	t.Helper()
	want, werr := ReadRecord(bytes.NewReader(buf))
	got, gerr := decodeRecord(buf)
	if (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error() {
		t.Fatalf("decodeRecord error %v, ReadRecord error %v", gerr, werr)
	}
	if werr == nil && (got.Key != want.Key || got.Hash != want.Hash || !bytes.Equal(got.Value, want.Value)) {
		t.Fatal("decodeRecord and ReadRecord decode different records")
	}
}
