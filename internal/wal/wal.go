// Package wal provides the durability substrate of an Active XML peer: an
// append-only, length-and-checksum-framed write-ahead log of repository
// mutations, periodic compaction into atomic snapshots, and crash recovery
// that loads the newest valid snapshot, replays the WAL tail, and truncates
// any torn final record.
//
// On-disk layout of a data directory:
//
//	wal-<seq>.log        append-only record stream for generation <seq>
//	snapshot-<seq>.snap  full repository state *before* any record of
//	                     wal-<seq>.log (written atomically: temp file,
//	                     fsync, rename, fsync directory)
//
// Each WAL record is framed as
//
//	uint32 payload length (little endian)
//	uint32 CRC-32C of the payload (little endian)
//	payload = op (1 byte) | name length (uint16 LE) | name | document bytes
//
// A snapshot file is the magic string "AXSNAP1\n" followed by one framed
// OpPut record per document. Because snapshots are renamed into place,
// a *.snap file is either complete or absent; checksums guard against
// at-rest corruption, and a snapshot that fails validation is skipped in
// favor of the previous generation, whose WAL is still on disk until the
// newer snapshot has been durably written.
//
// The compaction protocol is rotate-first: a new generation's WAL is
// created (and the directory fsynced) while the caller holds whatever lock
// makes its state capture consistent; the snapshot of the captured state
// is then written outside that lock. Recovery replays every WAL whose
// sequence number is >= the newest valid snapshot's, in order, so a crash
// at any point between rotation and snapshot completion loses nothing:
// the previous snapshot plus both WALs reconstruct the same state.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Op discriminates WAL record kinds.
type Op uint8

const (
	// OpPut sets a document: the record carries the name and the
	// serialized XML.
	OpPut Op = 1
	// OpDelete removes a document: the record carries only the name.
	OpDelete Op = 2
)

// SyncMode selects when appended records are fsynced to stable storage.
type SyncMode uint8

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation
	// survives power loss. The safest and slowest mode.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncInterval):
	// a crash loses at most one interval of acknowledged mutations.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes at its leisure.
	// A crash may lose everything since the last kernel writeback, but
	// the log still recovers to a consistent prefix.
	SyncNone
)

func (m SyncMode) String() string {
	switch m {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("SyncMode(%d)", uint8(m))
	}
}

// ParseSyncMode maps the -wal-sync flag values onto SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: sync mode must be always, interval or none, got %q", s)
}

// DefaultSyncInterval is the fsync period used by SyncInterval when
// Options.SyncInterval is zero.
const DefaultSyncInterval = 100 * time.Millisecond

const (
	walPrefix  = "wal-"
	walSuffix  = ".log"
	snapPrefix = "snapshot-"
	snapSuffix = ".snap"
	snapMagic  = "AXSNAP1\n"

	frameHeaderLen = 8       // uint32 length + uint32 crc
	maxRecordBytes = 1 << 30 // sanity bound: a larger length field is torn garbage
	maxNameBytes   = 1<<16 - 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Record is one logged mutation.
type Record struct {
	Op   Op
	Name string
	Data []byte // serialized document for OpPut; nil for OpDelete
}

// Options configures Open.
type Options struct {
	// Sync is the fsync discipline for appends (default SyncAlways).
	Sync SyncMode
	// SyncInterval is the background fsync period for SyncInterval
	// (default DefaultSyncInterval).
	SyncInterval time.Duration
	// Metrics, when non-nil, receives append/fsync/snapshot/recovery
	// observations. A nil *Metrics no-ops.
	Metrics *Metrics
	// TailRecords, when positive, keeps that many of the most recent
	// appended records in memory with absolute sequence numbers, served by
	// ReadAfter — the replication feed a leader streams to followers. 0
	// disables the tail (ReadAfter then always reports a gap).
	TailRecords int
}

// RecoveredState is what Open reconstructed from disk.
type RecoveredState struct {
	// Docs maps document names to their serialized XML as of the last
	// replayed record.
	Docs map[string][]byte
	// SnapshotSeq is the generation of the snapshot the state started
	// from (0 when no valid snapshot existed).
	SnapshotSeq uint64
	// ReplayedRecords counts WAL records applied on top of the snapshot.
	ReplayedRecords int
	// TruncatedRecords counts torn/corrupt record tails dropped (and
	// physically truncated) during replay — at most one per WAL file.
	TruncatedRecords int
	// SkippedSnapshots counts snapshot files that failed validation and
	// were passed over in favor of an older generation.
	SkippedSnapshots int
}

// Log is an append-only write-ahead log bound to one data directory.
// Append, Rotate, Sync and Close are safe for concurrent use; WriteSnapshot
// must not be called concurrently with itself (callers serialize
// compaction).
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File
	seq    uint64
	buf    []byte
	closed bool
	failed error // poisoned after a partial append: the tail is suspect

	// Replication tail (Options.TailRecords): recSeq numbers every
	// acknowledged append (in-memory, process-lifetime — cross-restart
	// identity is the replica layer's epoch), tailRecs is a ring of the
	// most recent records with tailPos the slot to overwrite next once
	// full, and notifyc is closed-and-replaced on each append so long-poll
	// readers can wait for new records without spinning.
	recSeq   uint64
	tailRecs []SeqRecord
	tailPos  int
	notifyc  chan struct{}

	stop chan struct{}
	done chan struct{}

	appends       atomic.Uint64
	appendedBytes atomic.Uint64
	syncs         atomic.Uint64
	snapshots     atomic.Uint64
	lastSnapBytes atomic.Uint64
	replayed      int
	truncated     int
}

// Stats is a point-in-time view of the log's counters, JSON-ready for the
// peer's /stats endpoint.
type Stats struct {
	Dir               string `json:"dir"`
	Generation        uint64 `json:"generation"`
	SyncMode          string `json:"sync_mode"`
	Appends           uint64 `json:"appends"`
	AppendedBytes     uint64 `json:"appended_bytes"`
	Fsyncs            uint64 `json:"fsyncs"`
	Snapshots         uint64 `json:"snapshots"`
	LastSnapshotBytes uint64 `json:"last_snapshot_bytes"`
	RecoveryReplayed  int    `json:"recovery_replayed_records"`
	RecoveryTruncated int    `json:"recovery_truncated_records"`
}

// Open recovers the state stored in dir (creating it if needed) and returns
// a log positioned to append to the newest generation. Recovery loads the
// newest snapshot that validates, replays every WAL of that generation or
// later in order, truncates torn tails, and removes files superseded by the
// snapshot.
func Open(dir string, opts Options) (*Log, *RecoveredState, error) {
	if opts.SyncInterval <= 0 {
		opts.SyncInterval = DefaultSyncInterval
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	walSeqs, snapSeqs, err := scanDir(dir)
	if err != nil {
		return nil, nil, err
	}

	state := &RecoveredState{Docs: make(map[string][]byte)}
	// Newest snapshot that validates wins; corrupt ones are skipped — the
	// files they would have superseded are only deleted after a snapshot
	// is durably in place, so an older generation is always recoverable.
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		docs, err := loadSnapshot(filepath.Join(dir, snapName(snapSeqs[i])))
		if err != nil {
			state.SkippedSnapshots++
			continue
		}
		state.Docs = docs
		state.SnapshotSeq = snapSeqs[i]
		break
	}

	appendSeq := state.SnapshotSeq
	for _, seq := range walSeqs {
		if seq < state.SnapshotSeq {
			continue // superseded by the snapshot; removed below
		}
		path := filepath.Join(dir, walName(seq))
		recs, goodLen, torn, err := scanFile(path)
		if err != nil {
			return nil, nil, err
		}
		for _, rec := range recs {
			applyRecord(state.Docs, rec)
		}
		state.ReplayedRecords += len(recs)
		if torn {
			state.TruncatedRecords++
			if err := os.Truncate(path, goodLen); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
			}
		}
		appendSeq = seq
	}

	f, err := os.OpenFile(filepath.Join(dir, walName(appendSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	// The WAL file (possibly just created) and any truncation must be
	// durable before mutations are acknowledged against it.
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, nil, err
	}

	l := &Log{dir: dir, opts: opts, f: f, seq: appendSeq,
		replayed: state.ReplayedRecords, truncated: state.TruncatedRecords}
	l.removeSuperseded(state.SnapshotSeq)
	opts.Metrics.observeRecovery(state)
	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, state, nil
}

// applyRecord folds one replayed record into the recovered document map.
// Replay order is append order, so a put following a delete (or vice versa)
// of the same name resolves to the later record — the WAL, not any loaded
// snapshot or directory, is the authority on recovered state.
func applyRecord(docs map[string][]byte, rec Record) {
	switch rec.Op {
	case OpPut:
		docs[rec.Name] = rec.Data
	case OpDelete:
		delete(docs, rec.Name)
	}
}

// Append logs one mutation. With SyncAlways the record is on stable storage
// when Append returns; an error means the mutation must not be
// acknowledged. After a failed write the log is poisoned — the on-disk tail
// is suspect — and every further Append fails.
func (l *Log) Append(op Op, name string, data []byte) error {
	if len(name) > maxNameBytes {
		return fmt.Errorf("wal: document name exceeds %d bytes", maxNameBytes)
	}
	start := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("wal: log poisoned by earlier write failure: %w", l.failed)
	}
	l.buf = appendFrame(l.buf[:0], op, name, data)
	if _, err := l.f.Write(l.buf); err != nil {
		l.failed = err
		return fmt.Errorf("wal: append: %w", err)
	}
	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			l.failed = err
			return err
		}
	}
	l.appends.Add(1)
	l.appendedBytes.Add(uint64(len(l.buf)))
	l.recordAppendedLocked(op, name, data)
	l.opts.Metrics.observeAppend(time.Since(start), len(l.buf))
	return nil
}

// Sync flushes appended records to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.syncs.Add(1)
	l.opts.Metrics.observeFsync(time.Since(start))
	return nil
}

// Rotate starts the next generation: it creates wal-<seq+1>.log, makes it
// durable, and directs subsequent appends there. It returns the new
// sequence number, which the caller passes to WriteSnapshot once it has
// serialized the state captured at the rotation point. Callers must hold
// whatever lock orders their state capture against concurrent appends.
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	next := l.seq + 1
	nf, err := os.OpenFile(filepath.Join(l.dir, walName(next)), os.O_CREATE|os.O_EXCL|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return 0, fmt.Errorf("wal: rotate: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		nf.Close()
		return 0, err
	}
	// Flush the outgoing generation: until the snapshot lands, recovery
	// depends on replaying it.
	if err := l.f.Sync(); err != nil {
		nf.Close()
		return 0, fmt.Errorf("wal: rotate: %w", err)
	}
	l.f.Close()
	l.f = nf
	l.seq = next
	l.failed = nil // the suspect tail, if any, is in the abandoned file
	return next, nil
}

// WriteSnapshot durably writes the full state as snapshot-<seq>.snap and
// removes the files it supersedes (WALs and snapshots of older
// generations). seq must come from Rotate, and docs must be the state
// captured at that rotation point. Callers serialize compactions.
func (l *Log) WriteSnapshot(seq uint64, docs map[string][]byte) error {
	start := time.Now()
	names := make([]string, 0, len(docs))
	for name := range docs {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := []byte(snapMagic)
	for _, name := range names {
		buf = appendFrame(buf, OpPut, name, docs[name])
	}
	if err := WriteFileAtomic(filepath.Join(l.dir, snapName(seq)), buf, 0o644); err != nil {
		return err
	}
	l.snapshots.Add(1)
	l.lastSnapBytes.Store(uint64(len(buf)))
	l.opts.Metrics.observeSnapshot(time.Since(start), len(buf))
	l.removeSuperseded(seq)
	return nil
}

// removeSuperseded deletes WALs and snapshots older than keepSeq, plus any
// temp files a crashed atomic write left behind. Best-effort: stale files
// are re-candidates at the next compaction or recovery.
func (l *Log) removeSuperseded(keepSeq uint64) {
	walSeqs, snapSeqs, err := scanDir(l.dir)
	if err != nil {
		return
	}
	for _, s := range walSeqs {
		if s < keepSeq {
			os.Remove(filepath.Join(l.dir, walName(s)))
		}
	}
	for _, s := range snapSeqs {
		if s < keepSeq {
			os.Remove(filepath.Join(l.dir, snapName(s)))
		}
	}
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), TempPrefix) {
			os.Remove(filepath.Join(l.dir, e.Name()))
		}
	}
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	seq := l.seq
	l.mu.Unlock()
	return Stats{
		Dir:               l.dir,
		Generation:        seq,
		SyncMode:          l.opts.Sync.String(),
		Appends:           l.appends.Load(),
		AppendedBytes:     l.appendedBytes.Load(),
		Fsyncs:            l.syncs.Load(),
		Snapshots:         l.snapshots.Load(),
		LastSnapshotBytes: l.lastSnapBytes.Load(),
		RecoveryReplayed:  l.replayed,
		RecoveryTruncated: l.truncated,
	}
}

// Close flushes and closes the log. Further operations return ErrClosed.
// Records appended (and acknowledged) before Close — including any appended
// between the interval-sync ticker's last firing and the Close call — are
// fsynced before Close returns.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.notifyc != nil {
		close(l.notifyc) // wake long-poll readers; AppendNotify now
		l.notifyc = nil  // returns an already-closed channel
	}
	l.mu.Unlock()
	// Retire the background fsync goroutine first: from here on no tick can
	// touch the file, so the final flush below is the last word on it. New
	// Appends already fail with ErrClosed, and an Append that held the lock
	// when Close started is serialized before the final Sync.
	if l.stop != nil {
		close(l.stop)
		<-l.done
	}
	l.mu.Lock()
	serr := l.syncLocked()
	cerr := l.f.Close()
	l.mu.Unlock()
	if serr != nil {
		return fmt.Errorf("wal: close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}

// syncLoop is the SyncInterval background fsync. A failed background fsync
// poisons the log exactly like a failed append: the durability of already
// acknowledged records is in doubt, so silently carrying on would let the
// suspect tail grow unboundedly.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.failed == nil {
				if err := l.syncLocked(); err != nil {
					l.failed = err
				}
			}
			l.mu.Unlock()
		}
	}
}

// appendFrame appends one framed record to buf.
func appendFrame(buf []byte, op Op, name string, data []byte) []byte {
	payloadLen := 1 + 2 + len(name) + len(data)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // crc placeholder
	payloadAt := len(buf)
	buf = append(buf, byte(op))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
	buf = append(buf, name...)
	buf = append(buf, data...)
	crc := crc32.Checksum(buf[payloadAt:], crcTable)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf
}

// decodePayload parses a checksum-verified payload.
func decodePayload(payload []byte) (Record, bool) {
	if len(payload) < 3 {
		return Record{}, false
	}
	op := Op(payload[0])
	if op != OpPut && op != OpDelete {
		return Record{}, false
	}
	nameLen := int(binary.LittleEndian.Uint16(payload[1:]))
	if 3+nameLen > len(payload) {
		return Record{}, false
	}
	rec := Record{Op: op, Name: string(payload[3 : 3+nameLen])}
	if rest := payload[3+nameLen:]; len(rest) > 0 {
		rec.Data = append([]byte(nil), rest...)
	}
	return rec, true
}

// scanFile reads every intact record of a WAL file. goodLen is the byte
// offset after the last intact record; torn reports whether trailing bytes
// (a partial or corrupt record) were dropped.
func scanFile(path string) (recs []Record, goodLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	off := 0
	for {
		if off+frameHeaderLen > len(data) {
			torn = off < len(data)
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordBytes || off+frameHeaderLen+n > len(data) {
			torn = true
			break
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != crc {
			torn = true
			break
		}
		rec, ok := decodePayload(payload)
		if !ok {
			torn = true
			break
		}
		recs = append(recs, rec)
		off += frameHeaderLen + n
	}
	return recs, int64(off), torn, nil
}

// loadSnapshot validates and decodes one snapshot file. Unlike WAL replay,
// any framing damage fails the whole file: snapshots are written
// atomically, so a bad frame means at-rest corruption, and the caller falls
// back to an older generation.
func loadSnapshot(path string) (map[string][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("wal: %s: bad snapshot magic", path)
	}
	docs := make(map[string][]byte)
	off := len(snapMagic)
	for off < len(data) {
		if off+frameHeaderLen > len(data) {
			return nil, fmt.Errorf("wal: %s: truncated snapshot frame", path)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxRecordBytes || off+frameHeaderLen+n > len(data) {
			return nil, fmt.Errorf("wal: %s: truncated snapshot frame", path)
		}
		payload := data[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.Checksum(payload, crcTable) != crc {
			return nil, fmt.Errorf("wal: %s: snapshot checksum mismatch", path)
		}
		rec, ok := decodePayload(payload)
		if !ok || rec.Op != OpPut {
			return nil, fmt.Errorf("wal: %s: invalid snapshot record", path)
		}
		docs[rec.Name] = rec.Data
		off += frameHeaderLen + n
	}
	return docs, nil
}

// scanDir lists WAL and snapshot sequence numbers present in dir, each
// sorted ascending.
func scanDir(dir string) (walSeqs, snapSeqs []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if s, ok := parseSeq(e.Name(), walPrefix, walSuffix); ok {
			walSeqs = append(walSeqs, s)
		}
		if s, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snapSeqs = append(snapSeqs, s)
		}
	}
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })
	return walSeqs, snapSeqs, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	s, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	if err != nil {
		return 0, false
	}
	return s, true
}

func walName(seq uint64) string  { return fmt.Sprintf("%s%016x%s", walPrefix, seq, walSuffix) }
func snapName(seq uint64) string { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }
