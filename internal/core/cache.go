// Compiled-enforcement caching. Safe rewriting is the expensive half of the
// Schema Enforcement module — Compile plus the per-content-model complement,
// product and marking — yet it depends only on the schema pair, the depth
// bound and the mode, never on the document being exchanged. A production
// peer therefore pays the analysis once per distinct schema pair and reuses
// it across every message:
//
//   - CompiledCache deduplicates Compile itself: one *Compiled per schema
//     pair, keyed by content fingerprint so that re-parsed but identical
//     exchange schemas (the /exchange endpoint creates one per request) hit;
//   - GetSource adds a second key in front of the first: a SHA-256 digest of
//     an exchange schema's raw bytes, so a repeated request body finds its
//     resident pair without being parsed or fingerprinted at all;
//   - each *Compiled carries a bounded word-verdict memo (wordcache.go) that
//     amortizes the safe/possible products and lazy derivative exploration
//     across repeated words.
//
// Both layers are safe for concurrent use; in-flight compilations are
// single-flighted so a thundering herd of identical requests performs one
// analysis.
package core

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"axml/internal/schema"
	"axml/internal/telemetry"
)

// DefaultCompiledCacheSize bounds how many distinct schema pairs a
// CompiledCache keeps compiled before evicting least-recently-used entries.
const DefaultCompiledCacheSize = 64

// CacheStats is a point-in-time snapshot of a cache's counters.
type CacheStats struct {
	Hits      uint64
	Misses    uint64 // for CompiledCache: exactly the number of Compile runs
	Evictions uint64
	Size      int
}

func (s CacheStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d size=%d", s.Hits, s.Misses, s.Evictions, s.Size)
}

// CompiledCache is an LRU cache of *Compiled keyed by schema-pair identity,
// with a second index from raw exchange-schema sources (GetSource).
// The zero value is not usable; create one with NewCompiledCache. A nil
// *CompiledCache degrades to uncached compilation, so callers can thread an
// optional cache without branching.
type CompiledCache struct {
	// WordCacheCapacity, when non-zero, overrides the word-verdict memo
	// capacity of every Compiled this cache creates (negative disables the
	// memo). Zero keeps DefaultWordCacheSize.
	WordCacheCapacity int

	// mu guards entries/aliases/lru/inflight and the entries' alias
	// fields. Hits take only the read lock — the cache sits on every
	// message's path, so parallel requests over cached pairs must not
	// serialize. Counters are atomic for the same reason. The two index
	// maps are created once and only ever cleared, never replaced.
	mu       sync.RWMutex
	capacity int
	entries  map[string]*list.Element    // PairKey -> element holding *compiledEntry
	aliases  map[sourceKey]*list.Element // source digest -> the same elements
	lru      *list.List                  // front = most recently used
	inflight map[string]*inflightCompile

	hits, misses, evictions atomic.Uint64

	// instr/compileSeconds are set once by Instrument (before the cache
	// serves traffic) and propagated onto every Compiled this cache
	// produces, so word-level analyses report into the same registry.
	instr          *Instruments
	compileSeconds *telemetry.Histogram
}

type compiledEntry struct {
	key string
	c   *Compiled
	// alias is the one source digest that names this entry, if aliased:
	// aliases[alias] points back here exactly when aliased is true, so the
	// alias index never holds more than the cache's capacity.
	alias   sourceKey
	aliased bool
}

// sourceKey is the SHA-256 digest naming an exchange schema's raw source
// (see GetSource).
type sourceKey [sha256.Size]byte

type inflightCompile struct {
	done chan struct{}
	c    *Compiled // nil if the compile panicked
}

// NewCompiledCache returns an empty cache bounded to capacity entries;
// capacity <= 0 selects DefaultCompiledCacheSize.
func NewCompiledCache(capacity int) *CompiledCache {
	if capacity <= 0 {
		capacity = DefaultCompiledCacheSize
	}
	return &CompiledCache{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		aliases:  make(map[sourceKey]*list.Element),
		lru:      list.New(),
		inflight: make(map[string]*inflightCompile),
	}
}

// PairKey computes the cache identity of a (sender, target) schema pair. The
// symbol namespace namespaces the key: fingerprints are table-relative (they
// embed interned symbol ids), so pairs from different namespaces must never
// collide even inside one shared cache. For a target parsed into a
// request-scoped table overlay (the /exchange path), the namespace is the
// root table's identity plus the overlay's extension key — two overlays that
// assigned the same symbols to the same names share cache entries, while any
// divergence in base or interning order keys separately instead of serving a
// stale analysis.
func PairKey(sender, target *schema.Schema) string {
	if sender == nil {
		sender = target
	}
	t := target.Table
	return fmt.Sprintf("%p\x00%s\x00%s\x00%s", t.Root(), t.ExtensionKey(), sender.Fingerprint(), target.Fingerprint())
}

// Get returns the compiled analysis for the schema pair, compiling it at
// most once per distinct pair no matter how many goroutines ask
// concurrently. Compile's panic on mismatched symbol tables propagates to
// every concurrent caller.
func (cc *CompiledCache) Get(sender, target *schema.Schema) *Compiled {
	if cc == nil {
		return Compile(sender, target)
	}
	return cc.get(PairKey(sender, target), sender, target)
}

// GetSource is Get for an exchange schema still in its raw source form. It
// digests src together with everything its parse depends on — the sender's
// identity and Version, and the identity and Len of sender.Table, the table
// parse must intern into through an overlay — and returns the resident
// pair that digest names without calling parse. Otherwise it parses, gets
// the pair as Get does and records the digest as the pair's alias. A parse
// error is returned and nothing is recorded, so errors are never cached.
//
// The digest is SHA-256 because src is chosen by the client: a collision
// would hand one schema's safety analysis to another. Each pair keeps one
// alias (the latest source that named it), and an alias lives exactly as
// long as its pair is resident, so the cache's capacity bounds both
// indexes. Pointer identities in the digest cannot be reused while the
// alias lives: the resident Compiled references both the sender and its
// table.
func (cc *CompiledCache) GetSource(sender *schema.Schema, src []byte, parse func([]byte) (*schema.Schema, error)) (*Compiled, error) {
	if cc == nil {
		target, err := parse(src)
		if err != nil {
			return nil, err
		}
		return Compile(sender, target), nil
	}
	k := newSourceKey(sender, src)
	if c := resident(cc, cc.aliases, k); c != nil {
		return c, nil
	}
	target, err := parse(src)
	if err != nil {
		return nil, err
	}
	key := PairKey(sender, target)
	c := cc.get(key, sender, target)
	cc.alias(k, key)
	return c, nil
}

// newSourceKey digests src with the identity and version of the sender and
// the identity and size of the table src is parsed against: a root table
// that has interned another name since gives the same bytes a new overlay
// base, hence a new digest.
func newSourceKey(sender *schema.Schema, src []byte) sourceKey {
	t := sender.Table
	h := sha256.New()
	fmt.Fprintf(h, "%p\x00%d\x00%p\x00%d\x00", sender, sender.Version(), t, t.Len())
	h.Write(src)
	var k sourceKey
	h.Sum(k[:0])
	return k
}

// alias records k as the source digest of the resident pair under key,
// replacing the pair's previous alias. A pair evicted (or never admitted,
// when its compile panicked) before this runs gets no alias.
func (cc *CompiledCache) alias(k sourceKey, key string) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	el, ok := cc.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*compiledEntry)
	if e.aliased {
		delete(cc.aliases, e.alias)
	}
	if prev, ok := cc.aliases[k]; ok {
		// k names another pair when the table grew between digesting
		// and parsing: the newer pair takes it over.
		prev.Value.(*compiledEntry).aliased = false
	}
	e.alias, e.aliased = k, true
	cc.aliases[k] = el
}

// resident returns the compiled pair index holds under k, or nil, and
// counts a hit. It runs under the shared lock only. Recency is updated
// only when the exclusive lock is free — an approximation that keeps
// concurrent hits from queueing on one mutex; a hot entry that never wins
// TryLock is by definition being hit constantly and will be re-inserted on
// the rare miss after eviction.
func resident[K comparable](cc *CompiledCache, index map[K]*list.Element, k K) *Compiled {
	cc.mu.RLock()
	el, ok := index[k]
	var c *Compiled
	if ok {
		c = el.Value.(*compiledEntry).c
	}
	cc.mu.RUnlock()
	if !ok {
		return nil
	}
	cc.hits.Add(1)
	if cc.mu.TryLock() {
		if el, still := index[k]; still {
			cc.lru.MoveToFront(el)
		}
		cc.mu.Unlock()
	}
	return c
}

// get is Get under a precomputed PairKey.
func (cc *CompiledCache) get(key string, sender, target *schema.Schema) *Compiled {
	if c := resident(cc, cc.entries, key); c != nil {
		return c
	}
	cc.mu.Lock()
	if el, ok := cc.entries[key]; ok { // raced with another miss
		cc.lru.MoveToFront(el)
		cc.hits.Add(1)
		c := el.Value.(*compiledEntry).c
		cc.mu.Unlock()
		return c
	}
	if fl, ok := cc.inflight[key]; ok {
		cc.mu.Unlock()
		<-fl.done
		if fl.c == nil {
			// The leader panicked; re-run to surface the same panic here.
			return Compile(sender, target)
		}
		// Served by the leader's compile without running one: a hit.
		cc.hits.Add(1)
		return fl.c
	}
	fl := &inflightCompile{done: make(chan struct{})}
	cc.inflight[key] = fl
	cc.misses.Add(1)
	instr, compileSeconds := cc.instr, cc.compileSeconds
	cc.mu.Unlock()

	defer func() {
		close(fl.done)
		cc.mu.Lock()
		delete(cc.inflight, key)
		if fl.c != nil {
			el := cc.lru.PushFront(&compiledEntry{key: key, c: fl.c})
			cc.entries[key] = el
			for cc.lru.Len() > cc.capacity {
				oldest := cc.lru.Remove(cc.lru.Back()).(*compiledEntry)
				delete(cc.entries, oldest.key)
				if oldest.aliased {
					delete(cc.aliases, oldest.alias)
				}
				cc.evictions.Add(1)
			}
		}
		cc.mu.Unlock()
	}()
	var t0 time.Time
	if compileSeconds != nil {
		t0 = time.Now()
	}
	c := Compile(sender, target)
	compileSeconds.ObserveSince(t0)
	if cc.WordCacheCapacity != 0 {
		c.SetWordCacheCapacity(cc.WordCacheCapacity)
	}
	if instr != nil {
		c.SetInstruments(instr)
	}
	fl.c = c
	return c
}

// Instrument wires the cache into a telemetry registry: hit/miss/eviction
// and residency series read the live counters at scrape time, compile runs
// are timed into axml_compile_seconds, and every Compiled this cache has
// produced (or produces later) reports its word-level analyses through the
// registry's instruments. Call once, before the cache serves traffic;
// re-instrumenting replaces the scrape callbacks but not handles already
// captured by resident rewriters. A nil cache or registry no-ops.
func (cc *CompiledCache) Instrument(reg *telemetry.Registry) *Instruments {
	if cc == nil || reg == nil {
		return nil
	}
	ins := NewInstruments(reg)
	cc.mu.Lock()
	cc.instr = ins
	cc.compileSeconds = reg.Histogram("axml_compile_seconds", telemetry.DefBuckets)
	for el := cc.lru.Front(); el != nil; el = el.Next() {
		el.Value.(*compiledEntry).c.SetInstruments(ins)
	}
	cc.mu.Unlock()
	reg.CounterFunc("axml_compile_cache_hits_total", func() float64 { return float64(cc.hits.Load()) })
	reg.CounterFunc("axml_compile_cache_misses_total", func() float64 { return float64(cc.misses.Load()) })
	reg.CounterFunc("axml_compile_cache_evictions_total", func() float64 { return float64(cc.evictions.Load()) })
	reg.GaugeFunc("axml_compile_cache_entries", func() float64 { return float64(cc.Len()) })
	reg.CounterFunc("axml_word_cache_hits_total", func() float64 { return float64(cc.WordStats().Hits) })
	reg.CounterFunc("axml_word_cache_misses_total", func() float64 { return float64(cc.WordStats().Misses) })
	reg.CounterFunc("axml_word_cache_evictions_total", func() float64 { return float64(cc.WordStats().Evictions) })
	reg.GaugeFunc("axml_word_cache_entries", func() float64 { return float64(cc.WordStats().Size) })
	return ins
}

// Stats snapshots the compile-level counters. Misses equals the number of
// times Compile actually ran on behalf of this cache.
func (cc *CompiledCache) Stats() CacheStats {
	if cc == nil {
		return CacheStats{}
	}
	cc.mu.RLock()
	size := cc.lru.Len()
	cc.mu.RUnlock()
	return CacheStats{
		Hits:      cc.hits.Load(),
		Misses:    cc.misses.Load(),
		Evictions: cc.evictions.Load(),
		Size:      size,
	}
}

// WordStats aggregates the word-verdict memo counters of every resident
// Compiled.
func (cc *CompiledCache) WordStats() CacheStats {
	if cc == nil {
		return CacheStats{}
	}
	cc.mu.RLock()
	compiled := make([]*Compiled, 0, cc.lru.Len())
	for el := cc.lru.Front(); el != nil; el = el.Next() {
		compiled = append(compiled, el.Value.(*compiledEntry).c)
	}
	cc.mu.RUnlock()
	var total CacheStats
	for _, c := range compiled {
		ws := c.WordCacheStats()
		total.Hits += ws.Hits
		total.Misses += ws.Misses
		total.Evictions += ws.Evictions
		total.Size += ws.Size
	}
	return total
}

// Aliases reports how many source digests name resident pairs (see
// GetSource); never more than Len.
func (cc *CompiledCache) Aliases() int {
	if cc == nil {
		return 0
	}
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return len(cc.aliases)
}

// Len reports how many compiled pairs are resident.
func (cc *CompiledCache) Len() int {
	if cc == nil {
		return 0
	}
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.lru.Len()
}

// Purge drops every resident entry and its alias (in-flight compilations
// finish and are admitted afterwards; counters persist).
func (cc *CompiledCache) Purge() {
	if cc == nil {
		return
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	clear(cc.entries)
	clear(cc.aliases)
	cc.lru.Init()
}
