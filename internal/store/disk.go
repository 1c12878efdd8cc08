package store

import (
	"container/list"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"axml/internal/doc"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

// Disk backend defaults.
const (
	// DefaultHotCache is the decoded-document budget of the hot tier.
	DefaultHotCache = 256
	// DefaultShards is the shard-directory count.
	DefaultShards = 16
	// MaxShards bounds the shard count (shard ids render as two hex
	// digits).
	MaxShards = 256
)

// indexFileName is the per-shard function-index file.
const indexFileName = "index.json"

// Disk is the disk-sharded DocStore: every document lives as
// <shard-dir>/<name>.xml (written atomically via wal.WriteFileAtomic, so a
// crash never leaves a torn document), where the shard directory is chosen
// by a hash of the document name. Reads are tiered: an LRU hot cache holds
// decoded doc.Node trees up to a budget, misses lazily fault the file in
// and parse it on demand — the resident set is the hot cache plus the name
// table, not the corpus.
//
// Each shard also carries an index.json recording, per document, its
// distinct function labels and the file's (size, mtime) at the time of the
// write. The function index answers DocsWithFunction without touching any
// document file; the (size, mtime) pair makes the index self-healing — a
// document file the index disagrees with (or does not know) is re-parsed at
// Open and its record rebuilt.
//
// Index writes are debounced: a mutation marks its shard dirty instead of
// rewriting index.json inline (the per-mutation rewrite dominated Put
// latency), and dirty shards are flushed on Close, Scan, or an explicit
// Flush. Self-healing is what makes the deferral safe — a crash before the
// flush leaves the same detectable mismatch as a crash between the two
// writes always could, just for more than one document.
type Disk struct {
	dir     string
	shards  int
	hotCap  int
	metrics *Metrics

	mu     sync.Mutex
	closed bool
	docs   map[string]*diskDoc
	byFunc map[string]map[string]struct{}
	hot    *lruCache
	dirty  map[int]bool // shard ids with a deferred index.json rewrite

	stats DiskStats
}

// diskDoc is the in-memory index record of one stored document.
type diskDoc struct {
	shard int
	funcs []string
	size  int64
	mtime int64 // UnixNano
}

// indexEntry is diskDoc's on-disk form inside a shard's index.json.
type indexEntry struct {
	Funcs []string `json:"funcs,omitempty"`
	Size  int64    `json:"size"`
	Mtime int64    `json:"mtime_ns"`
}

// OpenDisk opens (or creates) a disk-sharded store rooted at opts.Dir,
// scanning every shard directory to build the name table and repairing index
// entries that disagree with their document files (crash between the
// document write and the index write). It reads Dir, HotCache, Shards and
// Registry.
func OpenDisk(opts Options) (*Disk, error) {
	dir := opts.Dir
	if dir == "" {
		return nil, fmt.Errorf("store: the disk backend requires a data directory")
	}
	hotCap := opts.HotCache
	if hotCap <= 0 {
		hotCap = DefaultHotCache
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > MaxShards {
		return nil, fmt.Errorf("store: shard count %d exceeds the maximum %d", shards, MaxShards)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	d := &Disk{
		dir:     dir,
		shards:  shards,
		hotCap:  hotCap,
		metrics: NewMetrics(opts.Registry),
		docs:    make(map[string]*diskDoc),
		byFunc:  make(map[string]map[string]struct{}),
		hot:     newLRUCache(hotCap),
		dirty:   make(map[int]bool),
	}
	d.stats.Shards = shards
	d.stats.HotCacheCap = hotCap

	// Load every existing shard directory, including ids beyond the
	// configured count (a reopen with fewer shards must not lose
	// documents), then make sure the configured directories exist.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	seen := make(map[int]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var id int
		if _, err := fmt.Sscanf(e.Name(), "shard-%02x", &id); err != nil || shardDirName(id) != e.Name() {
			continue
		}
		if err := d.loadShard(id); err != nil {
			return nil, err
		}
		seen[id] = true
	}
	for i := 0; i < shards; i++ {
		if seen[i] {
			continue
		}
		if err := os.MkdirAll(d.shardDir(i), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	d.metrics.registerDisk(d)
	return d, nil
}

func shardDirName(id int) string { return fmt.Sprintf("shard-%02x", id) }

func (d *Disk) shardDir(id int) string { return filepath.Join(d.dir, shardDirName(id)) }

func (d *Disk) docPath(shard int, name string) string {
	return filepath.Join(d.shardDir(shard), name+".xml")
}

// shardOf hashes a document name onto a configured shard.
func (d *Disk) shardOf(name string) int {
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32() % uint32(d.shards))
}

// loadShard reads one shard directory into the name table: the index.json
// entries are trusted when their (size, mtime) matches the document file,
// re-parsed otherwise, and dropped when the file is gone. Crashed atomic
// temp files are swept. A repaired or pruned index is rewritten.
func (d *Disk) loadShard(id int) error {
	sd := d.shardDir(id)
	idx := make(map[string]indexEntry)
	if data, err := os.ReadFile(filepath.Join(sd, indexFileName)); err == nil {
		// A torn index would only exist after a crash of the non-atomic
		// pre-WriteFileAtomic era; unmarshal failures degrade to a full
		// re-parse of the shard rather than refusing to open.
		_ = json.Unmarshal(data, &idx)
	}
	entries, err := os.ReadDir(sd)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	dirty := false
	present := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasPrefix(e.Name(), wal.TempPrefix) {
			os.Remove(filepath.Join(sd, e.Name())) // crashed atomic write
			continue
		}
		base, isXML := strings.CutSuffix(e.Name(), ".xml")
		if !isXML || ValidateDocName(base) != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		ent, ok := idx[base]
		if !ok || ent.Size != info.Size() || ent.Mtime != info.ModTime().UnixNano() {
			// The index missed this write: rebuild its record from the
			// document file (the only parse Open ever does).
			data, err := os.ReadFile(filepath.Join(sd, e.Name()))
			if err != nil {
				return fmt.Errorf("store: %w", err)
			}
			n, err := xmlio.ParseString(string(data))
			if err != nil {
				// Atomic writes mean a torn file is impossible; this is
				// at-rest damage. Refuse to silently drop state.
				return fmt.Errorf("store: shard %s: parsing %s: %w", shardDirName(id), e.Name(), err)
			}
			ent = indexEntry{Funcs: FuncNames(n), Size: info.Size(), Mtime: info.ModTime().UnixNano()}
			idx[base] = ent
			dirty = true
			d.stats.IndexRepairs++
			d.metrics.observeIndexRepair()
		}
		present[base] = true
		d.docs[base] = &diskDoc{shard: id, funcs: ent.Funcs, size: ent.Size, mtime: ent.Mtime}
		d.addToFuncIndex(base, ent.Funcs)
	}
	for base := range idx {
		if !present[base] {
			delete(idx, base)
			dirty = true // index entry for a missing file (crash mid-delete)
		}
	}
	if dirty {
		if err := d.writeShardIndex(id, idx); err != nil {
			return err
		}
	}
	return nil
}

func (d *Disk) addToFuncIndex(name string, funcs []string) {
	for _, fn := range funcs {
		docs := d.byFunc[fn]
		if docs == nil {
			docs = make(map[string]struct{})
			d.byFunc[fn] = docs
		}
		docs[name] = struct{}{}
	}
}

func (d *Disk) dropFromFuncIndex(name string, funcs []string) {
	for _, fn := range funcs {
		if docs := d.byFunc[fn]; docs != nil {
			delete(docs, name)
			if len(docs) == 0 {
				delete(d.byFunc, fn)
			}
		}
	}
}

// writeShardIndex persists one shard's index.json atomically from the
// in-memory name table. Caller holds d.mu (or is inside Open).
func (d *Disk) writeShardIndex(id int, idx map[string]indexEntry) error {
	if idx == nil {
		idx = make(map[string]indexEntry)
		for name, dd := range d.docs {
			if dd.shard == id {
				idx[name] = indexEntry{Funcs: dd.funcs, Size: dd.size, Mtime: dd.mtime}
			}
		}
	}
	data, err := json.Marshal(idx)
	if err != nil {
		return fmt.Errorf("store: shard %s index: %w", shardDirName(id), err)
	}
	if err := wal.WriteFileAtomic(filepath.Join(d.shardDir(id), indexFileName), data, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// commitLocked writes a document file and its shard index, updates the name
// table and function index, and installs the node in the hot cache. Caller
// holds d.mu; c is owned by the store.
func (d *Disk) commitLocked(name string, shard int, c *doc.Node) error {
	s, err := xmlio.String(c)
	if err != nil {
		return fmt.Errorf("store: serializing %q: %w", name, err)
	}
	path := d.docPath(shard, name)
	if err := wal.WriteFileAtomic(path, []byte(s), 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	old := d.docs[name]
	if old != nil {
		d.dropFromFuncIndex(name, old.funcs)
	}
	funcs := FuncNames(c)
	d.docs[name] = &diskDoc{shard: shard, funcs: funcs, size: info.Size(), mtime: info.ModTime().UnixNano()}
	d.addToFuncIndex(name, funcs)
	d.evicted(d.hot.add(name, c))
	// The index rewrite is deferred to the next flush point: until then the
	// on-disk index lags this write by exactly the (size, mtime) mismatch
	// the next Open knows how to repair.
	d.dirty[shard] = true
	return nil
}

func (d *Disk) evicted(n int) {
	if n > 0 {
		d.stats.Evictions += uint64(n)
		d.metrics.observeEvictions(n)
	}
}

// Put stores a clone of n under name, writing through to the shard.
func (d *Disk) Put(name string, n *doc.Node) error {
	if err := ValidateDocName(name); err != nil {
		return err
	}
	start := time.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: put %q: %w", name, ErrClosed)
	}
	shard := d.shardOf(name)
	if old := d.docs[name]; old != nil {
		shard = old.shard // never strand a file under its old shard
	}
	if err := d.commitLocked(name, shard, n.Clone()); err != nil {
		return err
	}
	d.metrics.observePut(time.Since(start))
	return nil
}

// fetchLocked returns the named document without cloning: from the hot
// cache on a hit, else faulted from disk, parsed, and cached. Caller holds
// d.mu; the returned node is store-owned.
func (d *Disk) fetchLocked(name string) (*doc.Node, error) {
	dd, ok := d.docs[name]
	if !ok {
		return nil, fmt.Errorf("store: no document %q: %w", name, ErrNotFound)
	}
	if n, ok := d.hot.get(name); ok {
		d.stats.Hits++
		d.metrics.observeHit()
		return n, nil
	}
	start := time.Now()
	data, err := os.ReadFile(d.docPath(dd.shard, name))
	if err != nil {
		return nil, fmt.Errorf("store: faulting %q: %w", name, err)
	}
	n, err := xmlio.ParseString(string(data))
	if err != nil {
		return nil, fmt.Errorf("store: faulting %q: %w", name, err)
	}
	d.stats.Faults++
	d.metrics.observeFault(time.Since(start))
	d.evicted(d.hot.add(name, n))
	return n, nil
}

// Get returns a clone of the named document, faulting it from its shard if
// it is not hot. I/O or at-rest parse damage reports as a miss (Get has no
// error channel); Update on the same name surfaces the underlying error.
func (d *Disk) Get(name string) (*doc.Node, bool) {
	start := time.Now()
	d.mu.Lock()
	n, err := d.fetchLocked(name)
	d.mu.Unlock()
	if err != nil {
		return nil, false
	}
	d.metrics.observeGet(time.Since(start))
	return n.Clone(), true
}

// Update applies fn to a clone of the stored document (faulted in if cold)
// and commits the result atomically under the store lock.
func (d *Disk) Update(name string, fn func(*doc.Node) (*doc.Node, error)) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: update %q: %w", name, ErrClosed)
	}
	cur, err := d.fetchLocked(name)
	if err != nil {
		return err
	}
	next, err := fn(cur.Clone())
	if err != nil {
		return err
	}
	// next is store-owned from here on (same contract as Repository.Update).
	return d.commitLocked(name, d.docs[name].shard, next)
}

// Delete removes a document and its index record; absent names are a no-op.
func (d *Disk) Delete(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("store: delete %q: %w", name, ErrClosed)
	}
	dd, ok := d.docs[name]
	if !ok {
		return nil
	}
	if err := os.Remove(d.docPath(dd.shard, name)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	delete(d.docs, name)
	d.dropFromFuncIndex(name, dd.funcs)
	d.hot.remove(name)
	d.metrics.observeDelete()
	// Deferred like commitLocked's index write: a stale entry for a missing
	// file is pruned by the next Open if the flush never happens.
	d.dirty[dd.shard] = true
	return nil
}

// flushLocked rewrites every dirty shard's index.json from the in-memory
// name table. Caller holds d.mu. A failed shard stays dirty for the next
// flush attempt.
func (d *Disk) flushLocked() error {
	for id := range d.dirty {
		if err := d.writeShardIndex(id, nil); err != nil {
			return err
		}
		delete(d.dirty, id)
		d.stats.IndexFlushes++
		d.metrics.observeIndexFlush()
	}
	return nil
}

// Flush persists every deferred shard-index rewrite. Mutations mark shards
// dirty rather than rewriting index.json inline; Close and Scan flush
// implicitly, and callers that want a durable index at a specific moment
// call Flush directly.
func (d *Disk) Flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flushLocked()
}

// Scan lists up to limit names lexicographically after the cursor — from
// the name table, touching no document files. Scan is a flush point: an
// enumeration is how external tooling decides what exists, so the on-disk
// index is brought up to date first.
func (d *Disk) Scan(after string, limit int) ([]string, bool, error) {
	if limit <= 0 {
		limit = DefaultScanLimit
	}
	d.mu.Lock()
	if err := d.flushLocked(); err != nil {
		d.mu.Unlock()
		return nil, false, err
	}
	names := make([]string, 0, len(d.docs))
	for name := range d.docs {
		if name > after {
			names = append(names, name)
		}
	}
	d.mu.Unlock()
	sort.Strings(names)
	more := len(names) > limit
	if more {
		names = names[:limit]
	}
	return names, more, nil
}

// Names lists every stored name, sorted.
func (d *Disk) Names() []string {
	d.mu.Lock()
	out := make([]string, 0, len(d.docs))
	for name := range d.docs {
		out = append(out, name)
	}
	d.mu.Unlock()
	sort.Strings(out)
	return out
}

// Len reports the number of stored documents.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.docs)
}

// DocsWithFunction answers from the persistent function index: no document
// file is opened or parsed.
func (d *Disk) DocsWithFunction(fn string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.metrics.observeIndexQuery()
	docs := d.byFunc[fn]
	out := make([]string, 0, len(docs))
	for name := range docs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// ShardSizes reports the per-shard document counts, keyed by shard id.
func (d *Disk) ShardSizes() map[int]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	sizes := make(map[int]int, d.shards)
	for i := 0; i < d.shards; i++ {
		sizes[i] = 0
	}
	for _, dd := range d.docs {
		sizes[dd.shard]++
	}
	return sizes
}

// Stats reports the disk backend counters.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	ds := d.stats
	ds.HotCached = d.hot.len()
	return Stats{
		Backend:   BackendDisk,
		Documents: len(d.docs),
		Functions: len(d.byFunc),
		Disk:      &ds,
	}
}

// Close flushes any deferred shard-index rewrites and fences further
// mutations; reads keep working. Document bytes are always already on disk
// (every mutation writes the file through) — only the index debounce has
// state to flush. Idempotent.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.flushLocked()
	d.closed = true
	return err
}

// lruCache is a doubly-linked LRU of decoded documents (front = most
// recent). Not safe for concurrent use; Disk guards it with d.mu.
type lruCache struct {
	cap   int
	ll    *list.List
	items map[string]*list.Element
}

type lruEntry struct {
	name string
	node *doc.Node
}

func newLRUCache(cap int) *lruCache {
	return &lruCache{cap: cap, ll: list.New(), items: make(map[string]*list.Element)}
}

func (c *lruCache) get(name string) (*doc.Node, bool) {
	el, ok := c.items[name]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).node, true
}

// add installs (or refreshes) an entry and returns how many entries were
// evicted to respect the budget.
func (c *lruCache) add(name string, n *doc.Node) int {
	if el, ok := c.items[name]; ok {
		el.Value.(*lruEntry).node = n
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[name] = c.ll.PushFront(&lruEntry{name: name, node: n})
	evicted := 0
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*lruEntry).name)
		evicted++
	}
	return evicted
}

func (c *lruCache) remove(name string) {
	if el, ok := c.items[name]; ok {
		c.ll.Remove(el)
		delete(c.items, name)
	}
}

func (c *lruCache) len() int { return c.ll.Len() }
