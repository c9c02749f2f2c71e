package store

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sapalloc/internal/faultinject"
	"sapalloc/internal/obs"
	"sapalloc/internal/saperr"
)

// Segment log layout. A segment file is a sequence of batches:
//
//	batch := magic "SAPB" ‖ seq uint64 BE ‖ count uint32 BE ‖ prev Hash
//	         ‖ record × count ‖ root Hash ‖ head Hash
//
// where prev is the chain head before the batch, root the Merkle root of
// the batch's record hashes, and head = ChainHead(prev, root). Batches
// are written with a single Write call, so the only state a crash can
// leave is a prefix of a batch at the physical end of the log — the torn
// tail replay truncates.
const (
	segPrefix   = "seg-"
	segSuffix   = ".log"
	batchMagic  = "SAPB"
	batchHeader = 4 + 8 + 4 + 32 // magic + seq + count + prev
	batchFooter = 32 + 32        // root + head

	// maxBatchRecords bounds the count field during replay so a corrupt
	// header cannot drive an absurd loop.
	maxBatchRecords = 1 << 22
)

// Fault-injection crash-point sites (see internal/faultinject). All three
// are FireErr sites: arming KindError simulates the named failure.
const (
	// SiteFlush aborts a flush before any byte is written; the pending
	// batch stays buffered (durability postponed, nothing lost).
	SiteFlush = "store/flush"
	// SiteWriteTorn writes only the first half of the batch bytes and
	// fails the store — the in-process simulation of a crash mid-write.
	// Reopening the directory exercises torn-tail recovery.
	SiteWriteTorn = "store/write-torn"
	// SiteSegmentRotate fails the creation of the next segment file after
	// the active one fills; the store keeps appending to the oversized
	// active segment (degraded, not lost).
	SiteSegmentRotate = "store/segment-rotate"
)

// FileConfig tunes the file-backed store. The zero value uses the
// documented defaults.
type FileConfig struct {
	// FlushBytes is the batch size trigger: a Put that brings the pending
	// batch to at least this many encoded bytes flushes inline
	// (default 256 KiB).
	FlushBytes int
	// FlushInterval is the latency trigger: a background flusher writes
	// any pending records at this period, so a record is durable within
	// roughly one interval of its Put (default 50ms; negative disables
	// the background flusher — tests then call Flush explicitly).
	FlushInterval time.Duration
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 64 MiB).
	SegmentBytes int64
	// Sync fsyncs the active segment after every batch write. Off by
	// default: the batch is in the page cache and survives a process
	// crash, but not a host crash (sapserved -store-sync turns it on).
	Sync bool
}

func (c FileConfig) withDefaults() FileConfig {
	if c.FlushBytes <= 0 {
		c.FlushBytes = 256 << 10
	}
	if c.FlushInterval == 0 {
		c.FlushInterval = 50 * time.Millisecond
	}
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = 64 << 20
	}
	return c
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// indexEntry locates the latest flushed record for a key.
type indexEntry struct {
	batch int   // index into File.batches
	pos   int   // record position within its batch
	off   int64 // absolute offset of the record in its segment file
	vlen  uint32
	hash  Hash
}

// batchMeta is the in-memory summary of one flushed batch (~100 bytes per
// batch; proofs re-read the records from disk on demand).
type batchMeta struct {
	seg   int
	off   int64
	size  int64
	count int
	seq   uint64
	prev  Hash
	root  Hash
	head  Hash
}

type pendingRec struct {
	key Key
	val []byte
}

// Stats is a point-in-time summary of a File store, including what
// recovery found at open time.
type Stats struct {
	Records  int    // live keys in the index
	Batches  int    // flushed batches across all segments
	Segments int    // segment files
	LogBytes int64  // on-disk log size (sum of segment sizes)
	NextSeq  uint64 // sequence number the next flushed batch will carry
	Head     Hash   // current chain head
	// TailTruncated reports that open-time replay found and dropped a
	// torn tail; RecoveryErr (wrapping saperr.ErrCorruptStore) describes
	// it and DroppedBytes counts the bytes removed.
	TailTruncated bool
	DroppedBytes  int64
	RecoveryErr   error
}

// Provenance identifies a record's position in the tamper-evident log.
type Provenance struct {
	Batch  uint64 // 1-based batch sequence number
	Index  int    // record position within the batch
	Record Hash   // leaf hash of the record
	Root   Hash   // Merkle root of the batch
	Head   Hash   // chain head as of the batch
}

// String renders the provenance as the serving layer's header value, in
// full hex so a client can match the record hash, batch root and chain
// head against an independently replayed copy of the log.
func (p Provenance) String() string {
	return fmt.Sprintf("batch=%d index=%d record=%x root=%x head=%x",
		p.Batch, p.Index, p.Record[:], p.Root[:], p.Head[:])
}

// File is the file-backed Store: an append-only segment log with write
// batching, an in-memory index, and a Merkle chain over flushed batches.
// Construct with OpenFile; safe for concurrent use.
type File struct {
	cfg FileConfig
	dir string

	mu           sync.Mutex
	files        []*os.File // open segment handles; last is active
	names        []string
	activeSize   int64
	index        map[Key]indexEntry
	batches      []batchMeta
	pending      []pendingRec
	pendingPos   map[Key]int
	pendingBytes int
	liveBytes    int64
	seq          uint64 // next batch sequence number
	head         Hash
	stats        Stats
	failed       error // sticky after a torn write
	closed       bool

	done chan struct{}
	wg   sync.WaitGroup
}

// OpenFile opens (creating if needed) the store in dir, replaying and
// verifying the segment log. A torn tail — a partial batch at the
// physical end of the log, as left by a crash mid-flush — is truncated
// and reported through Stats; corruption anywhere earlier fails the open
// with an error wrapping saperr.ErrCorruptStore.
func OpenFile(dir string, cfg FileConfig) (*File, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	f := &File{cfg: cfg, dir: dir, done: make(chan struct{})}
	start := time.Now()
	if err := f.loadLocked(); err != nil {
		return nil, err
	}
	obs.StoreReplayNs.Record(int64(time.Since(start)))
	if cfg.FlushInterval > 0 {
		f.wg.Add(1)
		go f.flushLoop()
	}
	return f, nil
}

// loadLocked (re)builds all in-memory state from the segment files in
// f.dir. Callers hold f.mu or have exclusive access.
func (f *File) loadLocked() error {
	f.closeFilesLocked()
	f.index = make(map[Key]indexEntry)
	f.batches = nil
	f.pending = nil
	f.pendingPos = make(map[Key]int)
	f.pendingBytes = 0
	f.liveBytes = 0
	f.seq = 1
	f.head = Hash{}
	f.stats = Stats{}

	names, err := segmentNames(f.dir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		names = []string{segmentName(1)}
	}
	for si, name := range names {
		path := filepath.Join(f.dir, name)
		fh, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			f.closeFilesLocked()
			return fmt.Errorf("store: open segment: %w", err)
		}
		f.files = append(f.files, fh)
		f.names = append(f.names, name)
		size, err := f.replaySegment(si, fh, si == len(names)-1)
		if err != nil {
			f.closeFilesLocked()
			return err
		}
		f.activeSize = size
	}
	f.stats.Records = len(f.index)
	f.stats.Batches = len(f.batches)
	f.stats.Segments = len(f.files)
	f.stats.NextSeq = f.seq
	f.stats.Head = f.head
	f.stats.LogBytes = f.logBytesLocked()
	obs.StoreRecords.Set(int64(len(f.index)))
	obs.StoreBytes.Set(f.stats.LogBytes)
	return nil
}

// replaySegment verifies and indexes every batch in segment si, returning
// the number of valid bytes. An invalid batch in the last segment is a
// torn tail: the file is truncated to the last good batch boundary and
// replay succeeds. An invalid batch anywhere else — or one followed by
// further segments — cannot have been a crash tail and fails the replay.
func (f *File) replaySegment(si int, fh *os.File, last bool) (int64, error) {
	r := bufio.NewReaderSize(fh, 1<<20)
	var off int64
	var recs []batchRec
	for {
		meta, batch, err := readBatch(r, f.seq, f.head, recs[:0])
		recs = batch
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			// A crash mid-flush leaves a PREFIX of valid batch bytes at
			// the physical end of the log, so a genuine torn tail always
			// surfaces as an unexpected EOF in the final segment. Content
			// errors (bad magic, hash/root/chain mismatch) mean the bytes
			// are wrong, not missing — that is tampering, and it fails
			// the open loudly instead of being silently truncated.
			if !last || !errors.Is(err, io.ErrUnexpectedEOF) {
				return 0, fmt.Errorf("store: segment %s offset %d: %w", f.names[si], off, err)
			}
			// Torn tail: drop everything from the bad batch on.
			st, statErr := fh.Stat()
			if statErr != nil {
				return 0, fmt.Errorf("store: stat during recovery: %w", statErr)
			}
			dropped := st.Size() - off
			if truncErr := fh.Truncate(off); truncErr != nil {
				return 0, fmt.Errorf("store: truncate torn tail: %w", truncErr)
			}
			f.stats.TailTruncated = true
			f.stats.DroppedBytes = dropped
			f.stats.RecoveryErr = saperr.CorruptStore(
				"torn tail in %s: dropped %d bytes at offset %d: %v", f.names[si], dropped, off, err)
			obs.StoreTailTruncations.Inc()
			return off, nil
		}
		meta.seg, meta.off = si, off
		f.commit(meta, recs)
		off += meta.size
	}
}

// batchRec is one record's index material within its batch: its key, its
// offset from the batch start, its value length and its leaf hash.
type batchRec struct {
	key  Key
	off  int64
	vlen uint32
	leaf Hash
}

// encodeBatch encodes the records as batch seq chained onto prev, in one
// buffer so the batch leaves in one write. It returns the buffer, the
// batch's metadata (seg and off unset) and each record's index material.
func encodeBatch(seq uint64, prev Hash, pending []pendingRec) ([]byte, batchMeta, []batchRec) {
	size := batchHeader + batchFooter
	for _, pr := range pending {
		size += EncodedSize(len(pr.val))
	}
	buf := make([]byte, 0, size)
	buf = append(buf, batchMagic...)
	buf = binary.BigEndian.AppendUint64(buf, seq)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pending)))
	buf = append(buf, prev[:]...)
	leaves := make([]Hash, len(pending))
	recs := make([]batchRec, len(pending))
	for i, pr := range pending {
		off := int64(len(buf))
		buf = AppendRecord(buf, pr.key, pr.val) // ends with the leaf hash
		leaves[i] = Hash(buf[len(buf)-len(Hash{}):])
		recs[i] = batchRec{key: pr.key, off: off, vlen: uint32(len(pr.val)), leaf: leaves[i]}
	}
	meta := batchMeta{size: int64(size), count: len(pending), seq: seq, prev: prev, root: MerkleRoot(leaves)}
	meta.head = ChainHead(prev, meta.root)
	buf = append(buf, meta.root[:]...)
	buf = append(buf, meta.head[:]...)
	return buf, meta, recs
}

// readBatch reads and fully verifies one batch at the reader's position,
// which must carry sequence number seq and chain onto the head prev. It
// returns the batch's metadata (seg and off unset) and recs with each
// record's index material appended. io.EOF means a clean end at a batch
// boundary; every other error means the bytes from this batch boundary on
// are invalid.
func readBatch(r *bufio.Reader, seq uint64, prev Hash, recs []batchRec) (batchMeta, []batchRec, error) {
	var meta batchMeta
	header := make([]byte, batchHeader)
	if _, err := io.ReadFull(r, header[:1]); err != nil {
		return meta, recs, io.EOF // clean boundary: not a single byte left
	}
	if _, err := io.ReadFull(r, header[1:]); err != nil {
		return meta, recs, io.ErrUnexpectedEOF
	}
	if string(header[:4]) != batchMagic {
		return meta, recs, saperr.CorruptStore("bad batch magic %q", header[:4])
	}
	meta.seq = binary.BigEndian.Uint64(header[4:12])
	count := binary.BigEndian.Uint32(header[12:16])
	copy(meta.prev[:], header[16:])
	if meta.seq != seq {
		return meta, recs, saperr.CorruptStore("batch seq %d, want %d", meta.seq, seq)
	}
	if count == 0 || count > maxBatchRecords {
		return meta, recs, saperr.CorruptStore("implausible batch record count %d", count)
	}
	if meta.prev != prev {
		return meta, recs, saperr.CorruptStore("batch %d chain break: prev %s, want %s", meta.seq, meta.prev, prev)
	}
	meta.count = int(count)
	size := int64(batchHeader)
	leaves := make([]Hash, 0, count)
	for i := 0; i < int(count); i++ {
		rec, err := ReadRecord(r)
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return meta, recs, err
		}
		leaves = append(leaves, rec.Hash)
		recs = append(recs, batchRec{key: rec.Key, off: size, vlen: uint32(len(rec.Value)), leaf: rec.Hash})
		size += int64(EncodedSize(len(rec.Value)))
	}
	footer := make([]byte, batchFooter)
	if _, err := io.ReadFull(r, footer); err != nil {
		return meta, recs, io.ErrUnexpectedEOF
	}
	copy(meta.root[:], footer[:32])
	copy(meta.head[:], footer[32:])
	if got := MerkleRoot(leaves); got != meta.root {
		return meta, recs, saperr.CorruptStore("batch %d merkle root mismatch", meta.seq)
	}
	if got := ChainHead(meta.prev, meta.root); got != meta.head {
		return meta, recs, saperr.CorruptStore("batch %d chain head mismatch", meta.seq)
	}
	obs.StoreChainVerifies.Inc()
	meta.size = size + batchFooter
	return meta, recs, nil
}

// commit makes a batch, just written or verified by replay, part of the
// in-memory state: its metadata, its records' index entries (latest write
// wins) and the chain advance.
func (f *File) commit(meta batchMeta, recs []batchRec) {
	bi := len(f.batches)
	f.batches = append(f.batches, meta)
	for pos, r := range recs {
		if old, ok := f.index[r.key]; ok {
			f.liveBytes -= int64(EncodedSize(int(old.vlen)))
		}
		f.index[r.key] = indexEntry{
			batch: bi, pos: pos, off: meta.off + r.off, vlen: r.vlen, hash: r.leaf,
		}
		f.liveBytes += int64(EncodedSize(int(r.vlen)))
	}
	f.head = meta.head
	f.seq = meta.seq + 1
}

func (f *File) logBytesLocked() int64 {
	var total int64
	for si, fh := range f.files {
		if si == len(f.files)-1 {
			total += f.activeSize
			continue
		}
		if st, err := fh.Stat(); err == nil {
			total += st.Size()
		}
	}
	return total
}

// Get implements Store: pending batch first, then the index, re-verifying
// the record hash on every disk read so tampering surfaces at read time
// too, not only at the next replay.
func (f *File) Get(k Key) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, false, ErrClosed
	}
	if pos, ok := f.pendingPos[k]; ok {
		obs.StoreGetHits.Inc()
		return append([]byte(nil), f.pending[pos].val...), true, nil
	}
	ent, ok := f.index[k]
	if !ok {
		obs.StoreGetMisses.Inc()
		return nil, false, nil
	}
	rec, err := f.readRecordLocked(ent)
	if err != nil {
		return nil, false, err
	}
	obs.StoreGetHits.Inc()
	return rec.Value, true, nil
}

// readRecordLocked reads the record at ent into a buffer of its own and
// verifies it there: the returned Value aliases that buffer, so the caller
// owns it and the record is read with one allocation.
func (f *File) readRecordLocked(ent indexEntry) (Record, error) {
	buf := make([]byte, EncodedSize(int(ent.vlen)))
	fh := f.files[f.batches[ent.batch].seg]
	if _, err := fh.ReadAt(buf, ent.off); err != nil {
		return Record{}, fmt.Errorf("store: read record: %w", err)
	}
	return decodeRecord(buf)
}

// Put implements Store: the record joins the pending batch (immediately
// visible to Get) and is flushed by the size trigger here, the latency
// trigger in flushLoop, or an explicit Flush.
func (f *File) Put(k Key, v []byte) error {
	if len(v) > MaxValueBytes {
		return fmt.Errorf("store: value of %d bytes exceeds %d", len(v), MaxValueBytes)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.failed != nil {
		return f.failed
	}
	obs.StorePuts.Inc()
	val := append([]byte(nil), v...)
	if pos, ok := f.pendingPos[k]; ok {
		f.pendingBytes += EncodedSize(len(val)) - EncodedSize(len(f.pending[pos].val))
		f.pending[pos].val = val
	} else {
		f.pendingPos[k] = len(f.pending)
		f.pending = append(f.pending, pendingRec{key: k, val: val})
		f.pendingBytes += EncodedSize(len(val))
	}
	if f.pendingBytes >= f.cfg.FlushBytes {
		return f.flushLocked()
	}
	return nil
}

// Flush implements Store: write the pending batch, if any.
func (f *File) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if f.failed != nil {
		return f.failed
	}
	return f.flushLocked()
}

func (f *File) flushLocked() error {
	if len(f.pending) == 0 {
		return nil
	}
	if err := faultinject.FireErr(context.Background(), SiteFlush); err != nil {
		return fmt.Errorf("store: flush aborted: %w", err)
	}
	start := time.Now()

	buf, meta, recs := encodeBatch(f.seq, f.head, f.pending)
	active := f.files[len(f.files)-1]
	if err := faultinject.FireErr(context.Background(), SiteWriteTorn); err != nil {
		// Simulated crash mid-write: half the batch reaches the log and
		// the store fails sticky, exactly the state a real crash leaves
		// for the next open to recover from.
		_, _ = active.WriteAt(buf[:len(buf)/2], f.activeSize)
		f.failed = fmt.Errorf("store: torn write: %w", err)
		return f.failed
	}
	if _, err := active.WriteAt(buf, f.activeSize); err != nil {
		f.failed = fmt.Errorf("store: write batch: %w", err)
		return f.failed
	}
	if f.cfg.Sync {
		syncStart := time.Now()
		if err := active.Sync(); err != nil {
			f.failed = fmt.Errorf("store: fsync: %w", err)
			return f.failed
		}
		obs.StoreFsyncNs.Record(int64(time.Since(syncStart)))
	}

	meta.seg, meta.off = len(f.files)-1, f.activeSize
	f.commit(meta, recs)
	f.activeSize += int64(len(buf))
	f.pending = f.pending[:0]
	f.pendingPos = make(map[Key]int)
	f.pendingBytes = 0
	f.stats.Records = len(f.index)
	f.stats.Batches = len(f.batches)
	f.stats.NextSeq = f.seq
	f.stats.Head = f.head
	f.stats.LogBytes = f.logBytesLocked()
	obs.StoreBatchFlushes.Inc()
	obs.StoreFlushNs.Record(int64(time.Since(start)))
	obs.StoreRecords.Set(int64(len(f.index)))
	obs.StoreBytes.Set(f.stats.LogBytes)

	if f.activeSize >= f.cfg.SegmentBytes {
		if err := f.rotateLocked(); err != nil {
			// Rotation failure degrades (oversized active segment), it
			// does not lose the batch just written.
			return err
		}
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (f *File) rotateLocked() error {
	if err := faultinject.FireErr(context.Background(), SiteSegmentRotate); err != nil {
		return fmt.Errorf("store: segment rotation: %w", err)
	}
	name := segmentName(len(f.files) + 1)
	fh, err := os.OpenFile(filepath.Join(f.dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: segment rotation: %w", err)
	}
	f.files = append(f.files, fh)
	f.names = append(f.names, name)
	f.activeSize = 0
	f.stats.Segments = len(f.files)
	return nil
}

func (f *File) flushLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-f.done:
			return
		case <-t.C:
			// Errors are sticky in f.failed; the next Put/Flush reports
			// them to a caller that can act.
			_ = f.Flush()
		}
	}
}

// Len implements Store: live keys, pending included.
func (f *File) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.index)
	for _, pr := range f.pending {
		if _, flushed := f.index[pr.key]; !flushed {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the store's shape and recovery outcome.
func (f *File) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Records = len(f.index)
	return st
}

// Head returns the current chain head.
func (f *File) Head() Hash {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.head
}

// Dir returns the store's directory.
func (f *File) Dir() string { return f.dir }

// Provenance returns the log position of the flushed record for k.
// Records still in the pending batch have no provenance yet.
func (f *File) Provenance(k Key) (Provenance, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	ent, ok := f.index[k]
	if !ok || f.closed {
		return Provenance{}, false
	}
	meta := f.batches[ent.batch]
	return Provenance{
		Batch: meta.seq, Index: ent.pos, Record: ent.hash, Root: meta.root, Head: meta.head,
	}, true
}

// Verify re-walks the whole log from the first segment, re-verifying
// every record hash, Merkle root and chain link, and returns the first
// integrity error (wrapping saperr.ErrCorruptStore). Pending records are
// flushed first so the walk covers everything.
func (f *File) Verify() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if err := f.flushLocked(); err != nil {
		return err
	}
	head := Hash{}
	seq := uint64(1)
	var recs []batchRec
	for si, fh := range f.files {
		if _, err := fh.Seek(0, io.SeekStart); err != nil {
			return err
		}
		r := bufio.NewReaderSize(fh, 1<<20)
		var off int64
		for {
			meta, batch, err := readBatch(r, seq, head, recs[:0])
			recs = batch
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("store: verify %s offset %d: %w", f.names[si], off, err)
			}
			head, seq = meta.head, meta.seq+1
			off += meta.size
		}
	}
	if head != f.head {
		return fmt.Errorf("store: verify: log head %s does not match live head %s", head, f.head)
	}
	return nil
}

// Compact rewrites the log so it contains exactly the live records, in
// their original flush order, under a fresh chain (sequence and head
// restart — compaction re-roots provenance, which docs/STORAGE.md
// spells out). The swap (write temp files, delete old segments, rename)
// is not crash-atomic; run it from sapstore while the store is offline.
func (f *File) Compact() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return ErrClosed
	}
	if err := f.flushLocked(); err != nil {
		return err
	}

	// Live records in batch-then-position order = original write order.
	type liveRec struct {
		ent indexEntry
		key Key
	}
	live := make([]liveRec, 0, len(f.index))
	for k, ent := range f.index {
		live = append(live, liveRec{ent: ent, key: k})
	}
	sort.Slice(live, func(i, j int) bool {
		if live[i].ent.batch != live[j].ent.batch {
			return live[i].ent.batch < live[j].ent.batch
		}
		return live[i].ent.pos < live[j].ent.pos
	})

	tmp := filepath.Join(f.dir, "compact.tmp")
	out, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	defer out.Close()

	// One batch per FlushBytes-worth of records, fresh chain.
	head := Hash{}
	seq := uint64(1)
	var batch []pendingRec
	var batchBytes int
	writeBatch := func() error {
		if len(batch) == 0 {
			return nil
		}
		buf, meta, _ := encodeBatch(seq, head, batch)
		if _, err := out.Write(buf); err != nil {
			return fmt.Errorf("store: compact write: %w", err)
		}
		head, seq = meta.head, seq+1
		batch = batch[:0]
		batchBytes = 0
		return nil
	}
	for _, lr := range live {
		rec, err := f.readRecordLocked(lr.ent)
		if err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		batch = append(batch, pendingRec{key: lr.key, val: rec.Value})
		batchBytes += EncodedSize(len(rec.Value))
		if batchBytes >= f.cfg.FlushBytes {
			if err := writeBatch(); err != nil {
				return err
			}
		}
	}
	if err := writeBatch(); err != nil {
		return err
	}
	if err := out.Sync(); err != nil {
		return fmt.Errorf("store: compact fsync: %w", err)
	}

	// Swap: drop the old segments, promote the compacted log as segment
	// 1, and rebuild all in-memory state from disk.
	f.closeFilesLocked()
	old, err := segmentNames(f.dir)
	if err != nil {
		return err
	}
	for _, name := range old {
		if err := os.Remove(filepath.Join(f.dir, name)); err != nil {
			return fmt.Errorf("store: compact swap: %w", err)
		}
	}
	if err := os.Rename(tmp, filepath.Join(f.dir, segmentName(1))); err != nil {
		return fmt.Errorf("store: compact swap: %w", err)
	}
	return f.loadLocked()
}

// Close flushes pending records and releases the store.
func (f *File) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.mu.Unlock()
	close(f.done)
	f.wg.Wait()

	f.mu.Lock()
	defer f.mu.Unlock()
	var err error
	if f.failed == nil {
		err = f.flushLocked()
	}
	f.closed = true
	f.closeFilesLocked()
	return err
}

func (f *File) closeFilesLocked() {
	for _, fh := range f.files {
		_ = fh.Close()
	}
	f.files = nil
	f.names = nil
	f.activeSize = 0
}

func segmentName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// segmentNames lists the segment files in dir in log order.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: read dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && len(name) > len(segPrefix)+len(segSuffix) &&
			name[:len(segPrefix)] == segPrefix && name[len(name)-len(segSuffix):] == segSuffix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
