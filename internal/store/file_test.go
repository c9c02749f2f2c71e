package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sapalloc/internal/faultinject"
	"sapalloc/internal/saperr"
)

// openTest opens a store in a fresh temp dir with the background flusher
// disabled, so tests control flush timing exactly.
func openTest(t *testing.T, cfg FileConfig) (*File, string) {
	t.Helper()
	dir := t.TempDir()
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = -1
	}
	f, err := OpenFile(dir, cfg)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f, dir
}

func testKey(i int) Key    { return Key(sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))) }
func testVal(i int) []byte { return []byte(fmt.Sprintf("value-%d-%s", i, "payload")) }

func mustPut(t *testing.T, s Store, k Key, v []byte) {
	t.Helper()
	if err := s.Put(k, v); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

func mustGet(t *testing.T, s Store, k Key) []byte {
	t.Helper()
	v, ok, err := s.Get(k)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !ok {
		t.Fatalf("Get: key absent")
	}
	return v
}

func TestMemStore(t *testing.T) {
	var s Store = NewMem()
	k, v := testKey(1), testVal(1)
	if _, ok, _ := s.Get(k); ok {
		t.Fatal("empty store reports a hit")
	}
	mustPut(t, s, k, v)
	got := mustGet(t, s, k)
	if !bytes.Equal(got, v) {
		t.Fatalf("got %q, want %q", got, v)
	}
	// Copy-out: mutating the returned slice must not touch the store.
	got[0] ^= 0xff
	if !bytes.Equal(mustGet(t, s, k), v) {
		t.Fatal("Get returned an aliased slice")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestFilePutGetPendingAndFlushed(t *testing.T) {
	f, _ := openTest(t, FileConfig{})
	k, v := testKey(1), testVal(1)
	mustPut(t, f, k, v)
	// Visible before any flush.
	if got := mustGet(t, f, k); !bytes.Equal(got, v) {
		t.Fatalf("pending read: got %q, want %q", got, v)
	}
	if _, ok := f.Provenance(k); ok {
		t.Fatal("pending record must have no provenance yet")
	}
	if err := f.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if got := mustGet(t, f, k); !bytes.Equal(got, v) {
		t.Fatalf("flushed read: got %q, want %q", got, v)
	}
	prov, ok := f.Provenance(k)
	if !ok {
		t.Fatal("flushed record must have provenance")
	}
	if prov.Batch != 1 || prov.Index != 0 {
		t.Fatalf("provenance = %+v, want batch 1 index 0", prov)
	}
	if prov.Head != f.Head() {
		t.Fatalf("single-batch provenance head %s != store head %s", prov.Head, f.Head())
	}

	// A batch of several records: each provenance names its record's leaf
	// hash and position, the batch root is the Merkle root of those
	// leaves, and the head chains from the previous batch's head.
	const n = 9
	leaves := make([]Hash, n)
	for i := range leaves {
		mustPut(t, f, testKey(10+i), testVal(10+i))
		leaves[i] = RecordHash(testKey(10+i), testVal(10+i))
	}
	if err := f.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	root := MerkleRoot(leaves)
	for i := range leaves {
		p, ok := f.Provenance(testKey(10 + i))
		if !ok {
			t.Fatalf("record %d: flushed record must have provenance", i)
		}
		if p.Batch != 2 || p.Index != i || p.Record != leaves[i] {
			t.Fatalf("record %d: provenance %+v does not name batch 2, index %d, leaf %s", i, p, i, leaves[i])
		}
		if p.Root != root {
			t.Fatalf("record %d: root %s != Merkle root of the batch's leaves %s", i, p.Root, root)
		}
		if p.Head != ChainHead(prov.Head, root) || p.Head != f.Head() {
			t.Fatalf("record %d: head %s does not chain from %s and root %s", i, p.Head, prov.Head, root)
		}
	}
	if prov.Record != RecordHash(k, v) || prov.Root != MerkleRoot([]Hash{prov.Record}) ||
		ChainHead(Hash{}, prov.Root) != prov.Head {
		t.Fatalf("first batch provenance %+v does not chain from genesis", prov)
	}
}

func TestFileLatestWins(t *testing.T) {
	f, _ := openTest(t, FileConfig{})
	k := testKey(1)
	mustPut(t, f, k, []byte("old"))
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	mustPut(t, f, k, []byte("new-pending"))
	if got := mustGet(t, f, k); string(got) != "new-pending" {
		t.Fatalf("pending overwrite invisible: got %q", got)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := mustGet(t, f, k); string(got) != "new-pending" {
		t.Fatalf("flushed overwrite lost: got %q", got)
	}
	if f.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (overwrites are not new keys)", f.Len())
	}
}

func TestFileSizeTriggerFlush(t *testing.T) {
	f, _ := openTest(t, FileConfig{FlushBytes: 200})
	// Each record is well under 200 encoded bytes; a few Puts must cross
	// the threshold and flush without an explicit Flush call.
	for i := 0; i < 10; i++ {
		mustPut(t, f, testKey(i), testVal(i))
	}
	if got := f.Stats().Batches; got == 0 {
		t.Fatal("size trigger never flushed")
	}
}

func TestFileLatencyTriggerFlush(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileConfig{FlushInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mustPut(t, f, testKey(1), testVal(1))
	deadline := time.Now().Add(2 * time.Second)
	for f.Stats().Batches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("latency trigger never flushed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFileReopenWarm(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		mustPut(t, f, testKey(i), testVal(i))
		if i%7 == 0 {
			if err := f.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	head := f.Head()
	if err := f.Close(); err != nil { // Close flushes the remainder
		t.Fatal(err)
	}
	if head == f.head {
		t.Log("note: final flush advanced the head after snapshot (expected)")
	}

	g, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer g.Close()
	st := g.Stats()
	if st.TailTruncated || st.RecoveryErr != nil {
		t.Fatalf("clean reopen reported recovery: %+v", st)
	}
	if g.Len() != n {
		t.Fatalf("reopen Len = %d, want %d", g.Len(), n)
	}
	for i := 0; i < n; i++ {
		if got := mustGet(t, g, testKey(i)); !bytes.Equal(got, testVal(i)) {
			t.Fatalf("key %d: got %q, want %q", i, got, testVal(i))
		}
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("Verify after reopen: %v", err)
	}
}

func TestFileSegmentRotation(t *testing.T) {
	f, dir := openTest(t, FileConfig{FlushBytes: 128, SegmentBytes: 512})
	for i := 0; i < 40; i++ {
		mustPut(t, f, testKey(i), testVal(i))
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if segs := f.Stats().Segments; segs < 2 {
		t.Fatalf("Segments = %d, want rotation past 1", segs)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Multi-segment replay must see everything.
	g, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatalf("reopen multi-segment: %v", err)
	}
	defer g.Close()
	if g.Len() != 40 {
		t.Fatalf("Len = %d, want 40", g.Len())
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// corruptTail appends garbage to the last segment, simulating a torn
// batch write.
func corruptTail(t *testing.T, dir string, garbage []byte) {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("segmentNames: %v (%d)", err, len(names))
	}
	path := filepath.Join(dir, names[len(names)-1])
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.Write(garbage); err != nil {
		t.Fatal(err)
	}
	fh.Close()
}

func TestFileTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, f, testKey(1), testVal(1))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Garbage that starts like a real batch header but is cut short —
	// exactly what a torn write leaves.
	garbage := append([]byte(batchMagic), bytes.Repeat([]byte{0xAB}, 20)...)
	corruptTail(t, dir, garbage)

	g, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatalf("open over torn tail must succeed, got %v", err)
	}
	defer g.Close()
	st := g.Stats()
	if !st.TailTruncated {
		t.Fatal("Stats.TailTruncated = false")
	}
	if st.DroppedBytes != int64(len(garbage)) {
		t.Fatalf("DroppedBytes = %d, want %d", st.DroppedBytes, len(garbage))
	}
	if !saperr.IsCorruptStore(st.RecoveryErr) {
		t.Fatalf("RecoveryErr = %v, want saperr.ErrCorruptStore wrap", st.RecoveryErr)
	}
	// The intact prefix survives.
	if got := mustGet(t, g, testKey(1)); !bytes.Equal(got, testVal(1)) {
		t.Fatalf("record lost to truncation: %q", got)
	}
	// The store keeps working: the chain resumes from the good head.
	mustPut(t, g, testKey(2), testVal(2))
	if err := g.Flush(); err != nil {
		t.Fatalf("Flush after recovery: %v", err)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("Verify after recovery: %v", err)
	}
}

func TestFileMidLogCorruptionFailsOpen(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		mustPut(t, f, testKey(i), testVal(i))
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of the log: corruption that does NOT
	// extend to the physical tail is tampering, not a crash.
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/4] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenFile(dir, FileConfig{FlushInterval: -1})
	if err == nil {
		t.Fatal("open over mid-log corruption must fail")
	}
	if !saperr.IsCorruptStore(err) {
		t.Fatalf("err = %v, want saperr.ErrCorruptStore wrap", err)
	}
}

func TestFileVerifyDetectsTampering(t *testing.T) {
	f, dir := openTest(t, FileConfig{})
	mustPut(t, f, testKey(1), testVal(1))
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("clean Verify: %v", err)
	}
	// Tamper on disk behind the live store's back.
	names, _ := segmentNames(dir)
	path := filepath.Join(dir, names[0])
	fh, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a value byte inside the first record (past header+key+len).
	if _, err := fh.WriteAt([]byte{0xEE}, int64(batchHeader+sha256.Size+4)); err != nil {
		t.Fatal(err)
	}
	fh.Close()
	if err := f.Verify(); err == nil {
		t.Fatal("Verify missed tampering")
	}
	// Read-time verification catches it too.
	if _, _, err := f.Get(testKey(1)); err == nil {
		t.Fatal("Get returned a tampered record without error")
	}
}

func TestFileCompact(t *testing.T) {
	f, dir := openTest(t, FileConfig{FlushBytes: 256})
	const n = 20
	// Write every key three times so compaction has garbage to drop.
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			mustPut(t, f, testKey(i), []byte(fmt.Sprintf("round-%d-key-%d", round, i)))
		}
		if err := f.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	before := f.Stats().LogBytes
	if err := f.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	st := f.Stats()
	if st.LogBytes >= before {
		t.Fatalf("LogBytes %d not reduced from %d", st.LogBytes, before)
	}
	if f.Len() != n {
		t.Fatalf("Len = %d, want %d", f.Len(), n)
	}
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("round-2-key-%d", i)
		if got := mustGet(t, f, testKey(i)); string(got) != want {
			t.Fatalf("key %d: got %q, want %q", i, got, want)
		}
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify after compact: %v", err)
	}
	// The compacted log replays cleanly.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer g.Close()
	if g.Len() != n {
		t.Fatalf("reopen Len = %d, want %d", g.Len(), n)
	}
}

func TestFileFaultFlushAbort(t *testing.T) {
	f, _ := openTest(t, FileConfig{})
	plan := faultinject.NewPlan(faultinject.Injection{Site: SiteFlush, Kind: faultinject.KindError, Once: true})
	deactivate := faultinject.Activate(plan)
	defer deactivate()
	mustPut(t, f, testKey(1), testVal(1))
	if err := f.Flush(); err == nil {
		t.Fatal("armed flush site did not fail the flush")
	}
	// Nothing was written and nothing was lost: the retry succeeds.
	if err := f.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if got := mustGet(t, f, testKey(1)); !bytes.Equal(got, testVal(1)) {
		t.Fatalf("record lost across aborted flush: %q", got)
	}
}

func TestFileFaultTornWriteThenRecover(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustPut(t, f, testKey(1), testVal(1))
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan(faultinject.Injection{Site: SiteWriteTorn, Kind: faultinject.KindError, Once: true})
	deactivate := faultinject.Activate(plan)
	mustPut(t, f, testKey(2), testVal(2))
	if err := f.Flush(); err == nil {
		t.Fatal("torn-write site did not fail the flush")
	}
	deactivate()
	// The failure is sticky.
	if err := f.Put(testKey(3), testVal(3)); err == nil {
		t.Fatal("store accepted a Put after a torn write")
	}
	f.Close()

	// Reopen: the half-written batch is a torn tail; the store recovers.
	g, err := OpenFile(dir, FileConfig{FlushInterval: -1})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer g.Close()
	st := g.Stats()
	if !st.TailTruncated || !saperr.IsCorruptStore(st.RecoveryErr) {
		t.Fatalf("torn write not recovered as torn tail: %+v", st)
	}
	// The batch that tore is gone; the one before it survives.
	if got := mustGet(t, g, testKey(1)); !bytes.Equal(got, testVal(1)) {
		t.Fatalf("pre-tear record lost: %q", got)
	}
	if _, ok, _ := g.Get(testKey(2)); ok {
		t.Fatal("torn batch's record must not survive")
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("Verify after torn-write recovery: %v", err)
	}
}

func TestFileFaultSegmentRotate(t *testing.T) {
	f, _ := openTest(t, FileConfig{FlushBytes: 64, SegmentBytes: 128})
	plan := faultinject.NewPlan(faultinject.Injection{Site: SiteSegmentRotate, Kind: faultinject.KindError, Once: true})
	deactivate := faultinject.Activate(plan)
	defer deactivate()
	var rotateErr error
	for i := 0; i < 30 && rotateErr == nil; i++ {
		rotateErr = f.Put(testKey(i), testVal(i))
	}
	if rotateErr == nil {
		t.Fatal("rotation site never fired")
	}
	// Degraded, not broken: batches keep landing in the oversized active
	// segment and every record stays readable.
	mustPut(t, f, testKey(100), testVal(100))
	if err := f.Flush(); err != nil {
		t.Fatalf("flush after failed rotation: %v", err)
	}
	if got := mustGet(t, f, testKey(100)); !bytes.Equal(got, testVal(100)) {
		t.Fatalf("post-rotation-failure record: %q", got)
	}
}

func TestFileClosedErrors(t *testing.T) {
	f, _ := openTest(t, FileConfig{})
	mustPut(t, f, testKey(1), testVal(1))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := f.Put(testKey(2), testVal(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: %v, want ErrClosed", err)
	}
	if _, _, err := f.Get(testKey(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: %v, want ErrClosed", err)
	}
}

func TestFileOversizeValueRejected(t *testing.T) {
	f, _ := openTest(t, FileConfig{})
	big := make([]byte, MaxValueBytes+1)
	if err := f.Put(testKey(1), big); err == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestReadRecordTruncations(t *testing.T) {
	k, v := testKey(1), testVal(1)
	enc := AppendRecord(nil, k, v)
	// Every strict prefix must fail as EOF (empty) or unexpected EOF.
	for cut := 0; cut < len(enc); cut++ {
		_, err := ReadRecord(bytes.NewReader(enc[:cut]))
		if cut == 0 {
			if err != io.EOF {
				t.Fatalf("cut=0: err = %v, want io.EOF", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("cut=%d: truncated record decoded", cut)
		}
	}
	rec, err := ReadRecord(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("full record: %v", err)
	}
	if rec.Key != k || !bytes.Equal(rec.Value, v) {
		t.Fatal("round-trip mismatch")
	}
}

// Verify the faultinject sites fire with a context (API parity with the
// rest of the repo: sites accept ctx even when the store ignores it).
func TestFaultSitesObservable(t *testing.T) {
	plan := faultinject.Observer()
	deactivate := faultinject.Activate(plan)
	defer deactivate()
	f, _ := openTest(t, FileConfig{})
	mustPut(t, f, testKey(1), testVal(1))
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = context.Background()
	if plan.Hits(SiteFlush) == 0 {
		t.Fatalf("site %s never observed", SiteFlush)
	}
	if plan.Hits(SiteWriteTorn) == 0 {
		t.Fatalf("site %s never observed", SiteWriteTorn)
	}
}
