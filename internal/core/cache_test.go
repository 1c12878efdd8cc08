package core

import (
	"strings"
	"sync"
	"testing"

	"axml/internal/regex"
	"axml/internal/schema"
)

const cacheSenderText = `
root newspaper
elem newspaper = title.(Get_Temp|temp)
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`

const cacheTargetText = `
root newspaper
elem newspaper = title.temp
elem title = data
elem temp = data
elem city = data
func Get_Temp = city -> temp
`

func cachePair(t *testing.T) (*schema.Schema, *schema.Schema) {
	t.Helper()
	sender := schema.MustParseText(cacheSenderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), cacheTargetText, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sender, target
}

// TestCompiledCacheCompileOnce is the tentpole acceptance check: no matter
// how many goroutines ask for the same schema pair concurrently, Compile runs
// exactly once (Stats().Misses counts actual Compile runs).
func TestCompiledCacheCompileOnce(t *testing.T) {
	sender, target := cachePair(t)
	cc := NewCompiledCache(8)

	const goroutines, rounds = 16, 25
	results := make([]*Compiled, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				results[i] = cc.Get(sender, target)
			}
		}(i)
	}
	wg.Wait()

	for i, c := range results {
		if c == nil || c != results[0] {
			t.Fatalf("goroutine %d got a different *Compiled", i)
		}
	}
	st := cc.Stats()
	if st.Misses != 1 {
		t.Errorf("Compile ran %d times for one schema pair, want exactly 1 (%s)", st.Misses, st)
	}
	if want := uint64(goroutines*rounds - 1); st.Hits != want {
		t.Errorf("hits = %d, want %d (%s)", st.Hits, want, st)
	}
	if st.Size != 1 {
		t.Errorf("cache holds %d entries, want 1", st.Size)
	}
}

// TestCompiledCacheFingerprintHit: re-parsing the same schema text produces a
// distinct *Schema, but the content fingerprint makes it the same cache entry
// — the /exchange endpoint parses a fresh exchange schema per request.
func TestCompiledCacheFingerprintHit(t *testing.T) {
	sender, target1 := cachePair(t)
	target2, err := schema.ParseTextShared(schema.NewShared(sender.Table), cacheTargetText, nil)
	if err != nil {
		t.Fatal(err)
	}
	if target1 == target2 {
		t.Fatal("test needs two distinct schema values")
	}
	cc := NewCompiledCache(8)
	c1 := cc.Get(sender, target1)
	c2 := cc.Get(sender, target2)
	if c1 != c2 {
		t.Error("identical re-parsed schemas missed the cache")
	}
	if st := cc.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %s, want 1 miss + 1 hit", st)
	}
}

// TestCompiledCacheMutationInvalidates: mutating a schema (DefineQueryService
// calls SetFunc) changes its fingerprint, so the stale analysis is not
// served.
func TestCompiledCacheMutationInvalidates(t *testing.T) {
	sender, target := cachePair(t)
	cc := NewCompiledCache(8)
	c1 := cc.Get(sender, target)
	if err := sender.SetFunc("Late", "city", "temp"); err != nil {
		t.Fatal(err)
	}
	c2 := cc.Get(sender, target)
	if c1 == c2 {
		t.Error("mutated sender schema was served the stale analysis")
	}
	if c2.Func(c2.Table.Intern("Late")) == nil {
		t.Error("recompiled analysis does not know the new function")
	}
}

// TestCompiledCacheLRU: the cache is bounded and evicts least-recently-used
// pairs.
func TestCompiledCacheLRU(t *testing.T) {
	sender, _ := cachePair(t)
	variant := func(n string) *schema.Schema {
		s, err := schema.ParseTextShared(schema.NewShared(sender.Table),
			strings.Replace(cacheTargetText, "elem city = data", "elem city = data\nelem "+n+" = data", 1), nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := variant("aa"), variant("bb"), variant("cc")
	cc := NewCompiledCache(2)
	ca := cc.Get(sender, a)
	cc.Get(sender, b)
	cc.Get(sender, c) // evicts the (sender, a) analysis
	if st := cc.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Errorf("stats = %s, want 1 eviction and size 2", st)
	}
	if cc.Get(sender, a) == ca {
		t.Error("evicted analysis was served")
	}
	cc.Purge()
	if cc.Len() != 0 {
		t.Errorf("Len after Purge = %d", cc.Len())
	}
}

// TestNilCompiledCache: a nil cache degrades to plain compilation.
func TestNilCompiledCache(t *testing.T) {
	sender, target := cachePair(t)
	var cc *CompiledCache
	if cc.Get(sender, target) == nil {
		t.Fatal("nil cache returned nil Compiled")
	}
	if st := cc.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache stats = %s", st)
	}
	if cc.Len() != 0 || cc.WordStats() != (CacheStats{}) {
		t.Error("nil cache reported residents")
	}
	cc.Purge()
}

// TestPairKeyTableNamespacing: the same declarations in two different symbol
// tables must never share a key, since interned symbol ids differ.
func TestPairKeyTableNamespacing(t *testing.T) {
	s1 := schema.MustParseText(cacheSenderText, nil)
	s2 := schema.MustParseText(cacheSenderText, nil)
	if PairKey(s1, s1) == PairKey(s2, s2) {
		t.Error("pair keys collide across symbol tables")
	}
	if PairKey(nil, s1) != PairKey(s1, s1) {
		t.Error("nil sender must mean sender == target")
	}
}

// TestWordVerdictMemo: repeated words answer from the memo for every
// (engine, mode) combination, and verdicts match the uncached analyses.
func TestWordVerdictMemo(t *testing.T) {
	sender, target := cachePair(t)
	c := Compile(sender, target)
	word := []Token{
		{Sym: c.Table.Intern("title")},
		{Sym: c.Table.Intern("Get_Temp")},
	}
	model := c.ExpandPatterns(target.Labels["newspaper"].Content)

	for _, engine := range []EngineKind{Eager, Lazy} {
		for _, mode := range []Mode{Safe, Possible} {
			v1, err := c.WordVerdict(engine, mode, word, model, 1)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := c.WordVerdict(engine, mode, word, model, 1)
			if err != nil {
				t.Fatal(err)
			}
			if v1 != v2 || !v1 {
				t.Errorf("engine %d mode %s: verdicts %t/%t, want true/true", engine, mode, v1, v2)
			}
		}
	}
	st := c.WordCacheStats()
	if st.Hits != 4 || st.Misses != 4 {
		t.Errorf("word memo stats = %s, want 4 hits + 4 misses", st)
	}

	// Frozen tokens are a different word: must not reuse the plain verdict.
	frozen := []Token{word[0], {Sym: word[1].Sym, Frozen: true}}
	v, err := c.WordVerdict(Eager, Safe, frozen, model, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v {
		t.Error("frozen Get_Temp cannot safely rewrite into title.temp")
	}
}

// TestWordCacheBoundsAndDisable: the memo is LRU-bounded and can be disabled.
func TestWordCacheBoundsAndDisable(t *testing.T) {
	sender, target := cachePair(t)
	c := Compile(sender, target)
	c.SetWordCacheCapacity(2)
	model := c.ExpandPatterns(target.Labels["newspaper"].Content)
	syms := []string{"title", "temp", "city"}
	for _, name := range syms {
		if _, err := c.WordVerdict(Eager, Possible, []Token{{Sym: c.Table.Intern(name)}}, model, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.WordCacheStats(); st.Size != 2 || st.Evictions != 1 {
		t.Errorf("bounded memo stats = %s, want size 2 and 1 eviction", st)
	}

	c.SetWordCacheCapacity(-1)
	for i := 0; i < 3; i++ {
		if _, err := c.WordVerdict(Eager, Possible, []Token{{Sym: c.Table.Intern("title")}}, model, 1); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.WordCacheStats(); st != (CacheStats{}) {
		t.Errorf("disabled memo recorded stats %s", st)
	}
}

// TestWordVerdictMemoConcurrent hammers one Compiled from many goroutines;
// run with -race. This exercises the word memo, the shared Deriver and the
// pattern-expansion memo concurrently.
func TestWordVerdictMemoConcurrent(t *testing.T) {
	sender, target := cachePair(t)
	c := Compile(sender, target)
	model := c.ExpandPatterns(target.Labels["newspaper"].Content)
	words := [][]Token{
		{{Sym: c.Table.Intern("title")}, {Sym: c.Table.Intern("Get_Temp")}},
		{{Sym: c.Table.Intern("title")}, {Sym: c.Table.Intern("temp")}},
		{{Sym: c.Table.Intern("temp")}},
	}
	want := make([]bool, len(words))
	for i, w := range words {
		v, err := c.WordVerdict(Eager, Safe, w, model, 1)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < 30; j++ {
				i := (g + j) % len(words)
				engine := EngineKind(j % 2)
				v, err := c.WordVerdict(engine, Safe, words[i], model, 1)
				if err != nil {
					t.Errorf("verdict: %v", err)
					return
				}
				if v != want[i] {
					t.Errorf("word %d: verdict %t, want %t", i, v, want[i])
					return
				}
				_ = c.ExpandPatterns(target.Labels["newspaper"].Content)
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedDeriverConcurrent exercises the concurrency-safe derivative
// table directly; run with -race.
func TestSharedDeriverConcurrent(t *testing.T) {
	table := regex.NewTable()
	a, b := table.Intern("a"), table.Intern("b")
	r := regex.Concat(regex.Star(regex.Sym(a)), regex.Sym(b))
	d := regex.NewDeriver()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				da := d.Derive(r, a)
				if da.IsNever() || da.Nullable() {
					t.Errorf("d/da (a*.b) = %s, want non-empty and non-nullable", da.String(table))
					return
				}
				if again := d.Derive(r, a); again != da {
					t.Error("memoized derivative not canonical across calls")
					return
				}
				db := d.Derive(r, b)
				if !db.Nullable() {
					t.Error("d/db (a*.b) must be nullable")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sourceParser parses schema text into an overlay of the sender's table,
// as the /exchange handler parses a request body, and counts its calls.
type sourceParser struct {
	sender *schema.Schema
	calls  int
}

func (sp *sourceParser) parse(src []byte) (*schema.Schema, error) {
	sp.calls++
	return schema.ParseTextShared(schema.NewShared(sp.sender.Table.Overlay()), string(src), nil)
}

// TestExchangeCacheSourceHit: a repeated source is served from the source
// index without a parse; the pair it names is the one Get returns; a
// source that differs by one byte is parsed, and a pair keeps one alias.
func TestExchangeCacheSourceHit(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(8)
	sp := &sourceParser{sender: sender}
	src := []byte(cacheTargetText)

	c1, err := cc.GetSource(sender, src, sp.parse)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := cc.GetSource(sender, src, sp.parse)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || sp.calls != 1 {
		t.Fatalf("repeat: same pair %v, %d parses, want the same pair and 1 parse", c1 == c2, sp.calls)
	}
	if st := cc.Stats(); st.Misses != 1 || st.Hits != 1 || cc.Aliases() != 1 {
		t.Errorf("after a miss and a repeat: %s, %d aliases; want 1 miss, 1 hit, 1 alias", st, cc.Aliases())
	}
	target, _ := sp.parse(src)
	if c := cc.Get(sender, target); c != c1 {
		t.Error("Get on a fresh parse of the source returned another pair")
	}

	// One more trailing newline: the same schema, a different source.
	spaced := append(append([]byte(nil), src...), '\n')
	sp.calls = 0
	if c, err := cc.GetSource(sender, spaced, sp.parse); err != nil || c != c1 {
		t.Fatalf("one-byte-longer source: err %v, same pair %v", err, c == c1)
	}
	if sp.calls != 1 || cc.Stats().Misses != 1 {
		t.Errorf("one-byte-longer source: %d parses, %d compiles; want 1 parse and no compile", sp.calls, cc.Stats().Misses)
	}
	if n := cc.Aliases(); n != 1 {
		t.Errorf("one pair named by two sources holds %d aliases, want 1", n)
	}
}

// TestExchangeCacheSourceErrors: a parse error is returned on every repeat
// and never recorded.
func TestExchangeCacheSourceErrors(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(8)
	sp := &sourceParser{sender: sender}
	for i := 0; i < 3; i++ {
		if _, err := cc.GetSource(sender, []byte("elem newspaper = (title"), sp.parse); err == nil {
			t.Fatalf("attempt %d: malformed source accepted", i+1)
		}
	}
	if sp.calls != 3 || cc.Len() != 0 || cc.Aliases() != 0 {
		t.Errorf("3 failing sources: %d parses, %d entries, %d aliases; want 3, 0, 0", sp.calls, cc.Len(), cc.Aliases())
	}
}

// TestExchangeCacheSourceInvalidation: a declaration on the sender, even
// one that interns no new name, and a new name in the sender's table each
// retire the source's alias.
func TestExchangeCacheSourceInvalidation(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(8)
	sp := &sourceParser{sender: sender}
	src := []byte(cacheTargetText)
	get := func() *Compiled {
		t.Helper()
		c, err := cc.GetSource(sender, src, sp.parse)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	before := get()

	size := sender.Table.Len()
	if err := sender.SetLabel("title", "city"); err != nil {
		t.Fatal(err)
	}
	if sender.Table.Len() != size {
		t.Fatal("fixture: the redeclaration interned a name")
	}
	after := get()
	if sp.calls != 2 || after == before {
		t.Errorf("after redeclaring title: %d parses, same pair %v; want 2 parses and a new pair", sp.calls, after == before)
	}
	if got := after.Sender.Labels["title"].Content; got == nil {
		t.Error("the new pair does not see the redeclared title")
	}

	sender.Table.Intern("fresh")
	get()
	get()
	if sp.calls != 3 {
		t.Errorf("after the table grew: %d parses over two requests, want 1", sp.calls-2)
	}
}

// TestExchangeCacheSourceEviction: an alias goes with its pair, on eviction
// and on Purge.
func TestExchangeCacheSourceEviction(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(2)
	sp := &sourceParser{sender: sender}
	srcs := make([][]byte, 3)
	for i := range srcs {
		srcs[i] = []byte(cacheTargetText + "elem marker" + string(rune('a'+i)) + " = data\n")
		if _, err := cc.GetSource(sender, srcs[i], sp.parse); err != nil {
			t.Fatal(err)
		}
	}
	if cc.Len() != 2 || cc.Aliases() != 2 {
		t.Fatalf("3 sources through a 2-entry cache: %d entries, %d aliases; want 2, 2", cc.Len(), cc.Aliases())
	}
	sp.calls = 0
	if _, err := cc.GetSource(sender, srcs[0], sp.parse); err != nil || sp.calls != 1 {
		t.Errorf("source of an evicted pair: err %v, %d parses; want a parse", err, sp.calls)
	}
	cc.Purge()
	if cc.Len() != 0 || cc.Aliases() != 0 {
		t.Errorf("after Purge: %d entries, %d aliases", cc.Len(), cc.Aliases())
	}
	sp.calls = 0
	if _, err := cc.GetSource(sender, srcs[1], sp.parse); err != nil || sp.calls != 1 {
		t.Errorf("source after Purge: err %v, %d parses; want a parse", err, sp.calls)
	}
}

// TestExchangeCacheSourceConcurrent: goroutines resolving a working set of
// sources larger than the cache, with Purges in between, always get the
// pair of the source they sent, and the alias index never outgrows the
// entries.
func TestExchangeCacheSourceConcurrent(t *testing.T) {
	sender, _ := cachePair(t)
	cc := NewCompiledCache(3)
	const sources, goroutines, rounds = 6, 8, 60
	srcs := make([][]byte, sources)
	for i := range srcs {
		srcs[i] = []byte(cacheTargetText + "elem marker" + string(rune('a'+i)) + " = data\n")
	}
	parse := func(src []byte) (*schema.Schema, error) {
		return schema.ParseTextShared(schema.NewShared(sender.Table.Overlay()), string(src), nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % sources
				c, err := cc.GetSource(sender, srcs[i], parse)
				if err != nil {
					t.Error(err)
					return
				}
				if c.Target.Labels["marker"+string(rune('a'+i))] == nil {
					t.Errorf("source %d answered with another source's pair", i)
					return
				}
				if g == 0 && r%20 == 19 {
					cc.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	if n, a := cc.Len(), cc.Aliases(); n > 3 || a > n {
		t.Errorf("%d entries and %d aliases, want entries <= 3 and aliases <= entries", n, a)
	}
}
