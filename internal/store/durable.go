package store

import (
	"fmt"
	"sync"
	"sync/atomic"

	"axml/internal/doc"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// DurableRepository wraps a Repository with a write-ahead log and periodic
// snapshot compaction so that the repository survives crashes and restarts:
// every acknowledged Put/Update/Delete is framed into the WAL (under the
// repository's write lock, so log order is apply order) before it commits,
// and recovery at Open loads the newest valid snapshot, replays the WAL
// tail, and truncates any torn final record.
//
// The embedded *Repository is the live repository and journals every
// mutation. Hand the DurableRepository itself to a Peer (Peer.Repo) and
// every mutation path — HTTP PUT/DELETE on /doc/{name}, Materialize,
// negotiation — becomes durable with no further wiring, /stats reports the
// WAL counters, and closing the store writes the final snapshot.
type DurableRepository struct {
	*Repository

	log       *wal.Log
	snapEvery int
	closed    atomic.Bool

	// compactMu serializes Snapshot/Close; pending counts logged
	// mutations since the last rotation.
	compactMu sync.Mutex
	pending   atomic.Int64

	kick chan struct{} // nudges the background compactor (never closed)
	stop chan struct{} // closed by Close to retire the compactor
	done chan struct{} // closed when the compactor exits

	// recovery facts, frozen at Open
	recoveredDocs   int
	replayedRecords int
	truncatedTails  int
}

// OpenDurable opens (or creates) the durable repository stored in opts.Dir,
// running crash recovery first: state = newest valid snapshot + WAL tail,
// with later records winning over both the snapshot and any torn garbage
// dropped. The returned repository is empty only if the directory was. It
// reads Dir, Sync, SyncInterval, SnapshotEvery, Registry and ReplicaTail.
func OpenDurable(opts Options) (*DurableRepository, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: the wal backend requires a data directory")
	}
	log, state, err := wal.Open(opts.Dir, wal.Options{
		Sync:         opts.Sync,
		SyncInterval: opts.SyncInterval,
		Metrics:      wal.NewMetrics(opts.Registry),
		TailRecords:  opts.ReplicaTail,
	})
	if err != nil {
		return nil, err
	}
	repo := NewRepository()
	for name, data := range state.Docs {
		d, err := xmlio.ParseString(string(data))
		if err != nil {
			// Checksums passed, so this is not disk damage: the payload
			// itself was never a valid document. Refuse to silently drop
			// state.
			log.Close()
			return nil, fmt.Errorf("store: recovering %q: %w", name, err)
		}
		if err := repo.Put(name, d); err != nil {
			log.Close()
			return nil, fmt.Errorf("store: recovering %q: %w", name, err)
		}
	}
	d := &DurableRepository{
		Repository:      repo,
		log:             log,
		snapEvery:       opts.SnapshotEvery,
		recoveredDocs:   len(state.Docs),
		replayedRecords: state.ReplayedRecords,
		truncatedTails:  state.TruncatedRecords,
	}
	// Installed only after recovery: replayed documents are already on
	// disk and must not be re-logged.
	repo.journal = d.journalMutation
	if d.snapEvery > 0 {
		d.kick = make(chan struct{}, 1)
		d.stop = make(chan struct{})
		d.done = make(chan struct{})
		go d.compactLoop()
	}
	return d, nil
}

// journalMutation runs under the repository write lock: it frames the
// mutation into the WAL and, with SyncAlways, fsyncs before the mutation is
// acknowledged. d == nil encodes a delete.
func (r *DurableRepository) journalMutation(name string, n *doc.Node) error {
	if r.closed.Load() {
		return fmt.Errorf("store: durable repository: %w", ErrClosed)
	}
	op, data := wal.OpDelete, []byte(nil)
	if n != nil {
		s, err := xmlio.String(n)
		if err != nil {
			return fmt.Errorf("store: journaling %q: %w", name, err)
		}
		op, data = wal.OpPut, []byte(s)
	}
	if err := r.log.Append(op, name, data); err != nil {
		return fmt.Errorf("store: journaling %q: %w", name, err)
	}
	if r.snapEvery > 0 && r.pending.Add(1) >= int64(r.snapEvery) {
		select {
		case r.kick <- struct{}{}:
		default: // a compaction is already pending
		}
	}
	return nil
}

// compactLoop runs automatic compactions off the mutation path.
func (r *DurableRepository) compactLoop() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		case <-r.kick:
			if r.pending.Load() < int64(r.snapEvery) {
				continue // already compacted by an explicit Snapshot call
			}
			// Best-effort: a failed compaction leaves the WAL growing
			// but intact; the next threshold crossing (or Close)
			// retries.
			_ = r.Snapshot()
		}
	}
}

// Snapshot compacts the log now: it rotates the WAL to a fresh generation,
// captures the repository state at the rotation point, writes it as an
// atomic snapshot, and prunes superseded files. Safe to call concurrently
// with mutations; concurrent Snapshot calls are serialized.
func (r *DurableRepository) Snapshot() error {
	r.compactMu.Lock()
	defer r.compactMu.Unlock()
	repo := r.Repository

	// Rotation and state capture must be atomic with respect to
	// mutations: a mutation logged to the old generation is in the
	// capture; one logged to the new generation is replayed over the
	// snapshot. Stored nodes are immutable once acknowledged, so a
	// shallow copy of the map is a consistent capture.
	repo.mu.Lock()
	seq, err := r.log.Rotate()
	if err != nil {
		repo.mu.Unlock()
		return err
	}
	capture := make(map[string]*doc.Node, len(repo.docs))
	for name, d := range repo.docs {
		capture[name] = d
	}
	r.pending.Store(0)
	repo.mu.Unlock()

	enc := make(map[string][]byte, len(capture))
	for name, d := range capture {
		s, err := xmlio.String(d)
		if err != nil {
			return fmt.Errorf("store: snapshotting %q: %w", name, err)
		}
		enc[name] = []byte(s)
	}
	return r.log.WriteSnapshot(seq, enc)
}

// Close writes a final snapshot and closes the WAL. Mutations attempted
// after Close fail; reads keep working. Close is idempotent.
func (r *DurableRepository) Close() error {
	if r.closed.Swap(true) {
		return nil
	}
	if r.stop != nil {
		close(r.stop)
		<-r.done
	}
	// The final snapshot makes the next boot's recovery a pure snapshot
	// load. journalMutation now rejects new mutations, so the capture is
	// the final state.
	serr := r.Snapshot()
	cerr := r.log.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// WAL exposes the underlying log — the replication layer streams its tail
// (wal.ReadAfter / AppendNotify) and sequences its state exports against
// it. Callers must not Close or Rotate it directly.
func (r *DurableRepository) WAL() *wal.Log {
	return r.log
}

// ExportState captures the full repository state consistently with the WAL
// record sequence: every record with sequence <= seq is reflected in docs,
// and seq+1 is exactly the next record a replica resuming from this capture
// needs. The capture is taken under the repository read lock (mutations
// journal and commit under the write lock, so the pair is atomic here);
// serialization happens outside it.
func (r *DurableRepository) ExportState() (docs map[string][]byte, seq uint64, err error) {
	repo := r.Repository
	repo.mu.RLock()
	capture := make(map[string]*doc.Node, len(repo.docs))
	for name, d := range repo.docs {
		capture[name] = d
	}
	seq = r.log.HeadSeq()
	repo.mu.RUnlock()

	docs = make(map[string][]byte, len(capture))
	for name, d := range capture {
		s, err := xmlio.String(d)
		if err != nil {
			return nil, 0, fmt.Errorf("store: exporting %q: %w", name, err)
		}
		docs[name] = []byte(s)
	}
	return docs, seq, nil
}

// Stats reports the durable backend counters: WAL state plus recovery facts
// over the embedded repository's document and index counts.
func (r *DurableRepository) Stats() Stats {
	st := r.Repository.Stats()
	st.Backend = BackendWAL
	walStats := r.log.Stats()
	st.WAL = &walStats
	st.RecoveredDocuments = r.recoveredDocs
	st.SnapshotEvery = r.snapEvery
	return st
}
