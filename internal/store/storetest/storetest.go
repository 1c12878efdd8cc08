// Package storetest is the conformance suite every DocStore backend must
// pass: one set of subtests pinning the interface contract — clone-in/
// clone-out aliasing, ErrNotFound/ErrClosed sentinels, Scan pagination,
// function-index maintenance, concurrency under -race, and (for backends
// that persist) reopen recovery. New backends get the whole contract for
// the price of a Factory.
package storetest

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"axml/internal/doc"
	"axml/internal/store"
)

// Factory describes one backend under test.
type Factory struct {
	// Name labels the subtest tree ("mem", "wal", "disk").
	Name string
	// Open returns a fresh, empty store. Cleanup (including Close) is the
	// suite's job, not Open's.
	Open func(t *testing.T) store.DocStore
	// Reopen returns a new store over the same underlying state as the
	// last Open/Reopen from the same test, after the suite has Closed it.
	// Nil for ephemeral backends; non-nil enables the recovery subtests.
	Reopen func(t *testing.T) store.DocStore
}

// Run drives the full conformance suite against one backend.
func Run(t *testing.T, f Factory) {
	t.Run("BasicCRUD", func(t *testing.T) { testBasicCRUD(t, f) })
	t.Run("CloneInCloneOut", func(t *testing.T) { testCloneAliasing(t, f) })
	t.Run("Update", func(t *testing.T) { testUpdate(t, f) })
	t.Run("ScanPagination", func(t *testing.T) { testScan(t, f) })
	t.Run("FunctionIndex", func(t *testing.T) { testFunctionIndex(t, f) })
	t.Run("ClosedStore", func(t *testing.T) { testClosed(t, f) })
	t.Run("ConcurrentHammer", func(t *testing.T) { testConcurrent(t, f) })
	t.Run("SeedDir", func(t *testing.T) { testSeedDir(t, f) })
	if f.Reopen != nil {
		t.Run("ReopenRecovers", func(t *testing.T) { testReopen(t, f) })
	}
}

func newsDoc(body string) *doc.Node {
	return doc.Elem("page", doc.TextNode(body), doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
}

func mustPut(t *testing.T, s store.DocStore, name string, d *doc.Node) {
	t.Helper()
	if err := s.Put(name, d); err != nil {
		t.Fatalf("Put(%q) = %v", name, err)
	}
}

// writeFiles creates dir/name with each content.
func writeFiles(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// testSeedDir: seeding keeps documents the store already holds, counts only
// the documents it stored, ignores everything but *.xml files, and names a
// malformed file in its error.
func testSeedDir(t *testing.T, f Factory) {
	s := f.Open(t)
	defer s.Close()
	mustPut(t, s, "kept", newsDoc("stored"))

	dir := t.TempDir()
	writeFiles(t, dir, map[string]string{
		"kept.xml":  "<page>seed</page>",
		"fresh.xml": "<page>fresh</page>",
		"other.xml": "<page>other</page>",
		"notes.txt": "<not xml",
	})
	if err := os.Mkdir(filepath.Join(dir, "sub.xml"), 0o755); err != nil {
		t.Fatal(err)
	}
	n, err := store.SeedDir(s, dir)
	if err != nil || n != 2 {
		t.Fatalf("SeedDir = %d, %v; want 2 (fresh, other)", n, err)
	}
	if d, _ := s.Get("kept"); d == nil || d.Children[0].Value != "stored" {
		t.Errorf("SeedDir replaced an existing document: %v", d)
	}
	if d, ok := s.Get("fresh"); !ok || d.Children[0].Value != "fresh" {
		t.Errorf("Get(fresh) = %v, %v", d, ok)
	}
	if got := s.Names(); fmt.Sprint(got) != "[fresh kept other]" {
		t.Errorf("Names after seeding = %v, want [fresh kept other]", got)
	}
	if n, err := store.SeedDir(s, dir); err != nil || n != 0 {
		t.Errorf("second SeedDir = %d, %v; want 0", n, err)
	}

	bad := t.TempDir()
	writeFiles(t, bad, map[string]string{"broken.xml": "<page>unterminated"})
	if _, err := store.SeedDir(s, bad); err == nil || !strings.Contains(err.Error(), "broken.xml") {
		t.Errorf("SeedDir over a malformed file: error = %v, want one naming broken.xml", err)
	}
	if _, ok := s.Get("broken"); ok {
		t.Error("a malformed file was stored")
	}
}

func testBasicCRUD(t *testing.T, f Factory) {
	s := f.Open(t)
	defer s.Close()

	if _, ok := s.Get("missing"); ok {
		t.Error("Get on an empty store reported ok")
	}
	mustPut(t, s, "a", newsDoc("one"))
	mustPut(t, s, "b", newsDoc("two"))
	if got := s.Len(); got != 2 {
		t.Errorf("Len = %d, want 2", got)
	}
	d, ok := s.Get("a")
	if !ok || d.Children[0].Value != "one" {
		t.Fatalf("Get(a) = %v, %v", d, ok)
	}

	// Put replaces.
	mustPut(t, s, "a", newsDoc("uno"))
	if d, _ := s.Get("a"); d.Children[0].Value != "uno" {
		t.Errorf("Put did not replace: %v", d)
	}
	if got := s.Len(); got != 2 {
		t.Errorf("Len after replace = %d, want 2", got)
	}

	wantNames := []string{"a", "b"}
	if got := s.Names(); fmt.Sprint(got) != fmt.Sprint(wantNames) {
		t.Errorf("Names = %v, want %v (sorted)", got, wantNames)
	}

	if err := s.Delete("a"); err != nil {
		t.Fatalf("Delete = %v", err)
	}
	if _, ok := s.Get("a"); ok {
		t.Error("document survived Delete")
	}
	// Deleting an absent name is a no-op, not an error.
	if err := s.Delete("a"); err != nil {
		t.Errorf("repeat Delete = %v, want nil", err)
	}
	if got := s.Len(); got != 1 {
		t.Errorf("Len after delete = %d, want 1", got)
	}
}

// The aliasing contract: a caller can never mutate stored state through a
// node it handed in or got back.
func testCloneAliasing(t *testing.T, f Factory) {
	s := f.Open(t)
	defer s.Close()

	in := newsDoc("original")
	mustPut(t, s, "memo", in)
	in.Children[0].Value = "scribbled-after-put"
	if d, _ := s.Get("memo"); d.Children[0].Value != "original" {
		t.Errorf("mutating the input after Put leaked into the store: %v", d)
	}

	out, _ := s.Get("memo")
	out.Children[0].Value = "scribbled-on-output"
	if d, _ := s.Get("memo"); d.Children[0].Value != "original" {
		t.Errorf("mutating a returned node leaked into the store: %v", d)
	}
}

func testUpdate(t *testing.T, f Factory) {
	s := f.Open(t)
	defer s.Close()
	mustPut(t, s, "memo", newsDoc("v1"))

	// The happy path commits fn's return.
	err := s.Update("memo", func(d *doc.Node) (*doc.Node, error) {
		d.Children[0].Value = "v2"
		return d, nil
	})
	if err != nil {
		t.Fatalf("Update = %v", err)
	}
	if d, _ := s.Get("memo"); d.Children[0].Value != "v2" {
		t.Errorf("Update not committed: %v", d)
	}

	// An fn error aborts and leaves the document unchanged.
	boom := errors.New("boom")
	err = s.Update("memo", func(d *doc.Node) (*doc.Node, error) {
		d.Children[0].Value = "must-not-commit"
		return d, boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("Update error = %v, want the fn error", err)
	}
	if d, _ := s.Get("memo"); d.Children[0].Value != "v2" {
		t.Errorf("aborted Update mutated the store: %v", d)
	}

	// A miss is the ErrNotFound sentinel, wrapped.
	err = s.Update("absent", func(d *doc.Node) (*doc.Node, error) { return d, nil })
	if !errors.Is(err, store.ErrNotFound) {
		t.Errorf("Update miss = %v, want errors.Is ErrNotFound", err)
	}
}

func testScan(t *testing.T, f Factory) {
	s := f.Open(t)
	defer s.Close()
	const n = 7
	for i := 0; i < n; i++ {
		mustPut(t, s, fmt.Sprintf("doc-%02d", i), newsDoc("x"))
	}

	// Page through with limit 3: pages of 3, 3, 1.
	var all []string
	after, pages := "", 0
	for {
		names, more, err := s.Scan(after, 3)
		if err != nil {
			t.Fatalf("Scan = %v", err)
		}
		all = append(all, names...)
		pages++
		if !more {
			break
		}
		if len(names) == 0 {
			t.Fatal("Scan reported more with an empty page")
		}
		after = names[len(names)-1]
	}
	if pages != 3 || len(all) != n {
		t.Errorf("paged %d names over %d pages, want %d over 3", len(all), pages, n)
	}
	for i, name := range all {
		if want := fmt.Sprintf("doc-%02d", i); name != want {
			t.Errorf("page order: got %q at %d, want %q", name, i, want)
		}
	}

	// The cursor is exclusive; limit <= 0 selects a backend default that
	// covers this small corpus in one page.
	names, more, err := s.Scan("doc-04", 0)
	if err != nil || more {
		t.Fatalf("Scan(doc-04, 0) = %v, more=%v", err, more)
	}
	if fmt.Sprint(names) != fmt.Sprint([]string{"doc-05", "doc-06"}) {
		t.Errorf("Scan after doc-04 = %v", names)
	}

	// A cursor past the end is an empty final page.
	names, more, err = s.Scan("zzz", 5)
	if err != nil || more || len(names) != 0 {
		t.Errorf("Scan past the end = %v, %v, %v", names, more, err)
	}
}

func testFunctionIndex(t *testing.T, f Factory) {
	s := f.Open(t)
	defer s.Close()
	fi, ok := s.(store.FunctionIndex)
	if !ok {
		t.Skipf("%s does not implement store.FunctionIndex", f.Name)
	}

	mustPut(t, s, "w1", newsDoc("a"))                                  // Get_Temp
	mustPut(t, s, "w2", newsDoc("b"))                                  // Get_Temp
	mustPut(t, s, "plain", doc.Elem("page", doc.TextNode("no calls"))) // none
	mustPut(t, s, "times", doc.Elem("page", doc.Call("Get_Time")))

	docs, err := fi.DocsWithFunction("Get_Temp")
	if err != nil {
		t.Fatalf("DocsWithFunction = %v", err)
	}
	if fmt.Sprint(docs) != fmt.Sprint([]string{"w1", "w2"}) {
		t.Errorf("DocsWithFunction(Get_Temp) = %v, want [w1 w2]", docs)
	}
	if docs, _ := fi.DocsWithFunction("Nope"); len(docs) != 0 {
		t.Errorf("unknown function indexed: %v", docs)
	}

	// Overwriting a document re-indexes it: w1 loses Get_Temp, gains
	// Get_Time.
	mustPut(t, s, "w1", doc.Elem("page", doc.Call("Get_Time")))
	if docs, _ := fi.DocsWithFunction("Get_Temp"); fmt.Sprint(docs) != fmt.Sprint([]string{"w2"}) {
		t.Errorf("after overwrite, DocsWithFunction(Get_Temp) = %v, want [w2]", docs)
	}
	if docs, _ := fi.DocsWithFunction("Get_Time"); fmt.Sprint(docs) != fmt.Sprint([]string{"times", "w1"}) {
		t.Errorf("after overwrite, DocsWithFunction(Get_Time) = %v, want [times w1]", docs)
	}

	// Update re-indexes: materialize w2's call and it leaves the index.
	err = s.Update("w2", func(d *doc.Node) (*doc.Node, error) {
		return doc.Elem("page", doc.Elem("temp", doc.TextNode("21"))), nil
	})
	if err != nil {
		t.Fatalf("Update = %v", err)
	}
	if docs, _ := fi.DocsWithFunction("Get_Temp"); len(docs) != 0 {
		t.Errorf("materialized call still indexed: %v", docs)
	}

	// Delete drops the document's index entries.
	if err := s.Delete("times"); err != nil {
		t.Fatal(err)
	}
	if docs, _ := fi.DocsWithFunction("Get_Time"); fmt.Sprint(docs) != fmt.Sprint([]string{"w1"}) {
		t.Errorf("after delete, DocsWithFunction(Get_Time) = %v, want [w1]", docs)
	}
}

func testClosed(t *testing.T, f Factory) {
	s := f.Open(t)
	mustPut(t, s, "memo", newsDoc("survives"))
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	// Idempotent.
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}

	if err := s.Put("late", newsDoc("x")); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Put after Close = %v, want errors.Is ErrClosed", err)
	}
	if err := s.Delete("memo"); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Delete after Close = %v, want errors.Is ErrClosed", err)
	}
	err := s.Update("memo", func(d *doc.Node) (*doc.Node, error) { return d, nil })
	if !errors.Is(err, store.ErrClosed) {
		t.Errorf("Update after Close = %v, want errors.Is ErrClosed", err)
	}

	// Reads keep working against the last committed state.
	if d, ok := s.Get("memo"); !ok || d.Children[0].Value != "survives" {
		t.Errorf("Get after Close = %v, %v", d, ok)
	}
	if got := s.Len(); got != 1 {
		t.Errorf("Len after Close = %d", got)
	}
}

// testConcurrent hammers one store from many goroutines; run the suite with
// -race to make this a data-race detector, and check invariants afterwards.
func testConcurrent(t *testing.T, f Factory) {
	s := f.Open(t)
	defer s.Close()
	const workers, rounds = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("worker-%d", w)
			for i := 0; i < rounds; i++ {
				if err := s.Put(name, newsDoc(fmt.Sprintf("round %d", i))); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if d, ok := s.Get(name); ok && len(d.Children) == 0 {
					t.Error("Get returned an empty document")
					return
				}
				_ = s.Update(name, func(d *doc.Node) (*doc.Node, error) {
					d.Children[0].Value = "updated"
					return d, nil
				})
				s.Get(fmt.Sprintf("worker-%d", (w+1)%workers))
				if _, _, err := s.Scan("", 4); err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				if fi, ok := s.(store.FunctionIndex); ok {
					if _, err := fi.DocsWithFunction("Get_Temp"); err != nil {
						t.Errorf("DocsWithFunction: %v", err)
						return
					}
				}
				if i%10 == 9 {
					if err := s.Delete(name); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Every worker's last round Put then Updated without deleting.
	if got := s.Len(); got != workers {
		t.Errorf("Len after hammer = %d, want %d", got, workers)
	}
	for w := 0; w < workers; w++ {
		if d, ok := s.Get(fmt.Sprintf("worker-%d", w)); !ok || d.Children[0].Value != "updated" {
			t.Errorf("worker-%d document = %v, %v", w, d, ok)
		}
	}
}

// testReopen is the crash-recovery half of the contract: everything
// acknowledged before Close is there after a reopen, including the
// function index.
func testReopen(t *testing.T, f Factory) {
	s := f.Open(t)
	mustPut(t, s, "keep", newsDoc("persisted"))
	mustPut(t, s, "gone", newsDoc("deleted"))
	mustPut(t, s, "fresh", doc.Elem("page", doc.Call("Get_Time")))
	if err := s.Update("keep", func(d *doc.Node) (*doc.Node, error) {
		d.Children[0].Value = "persisted-v2"
		return d, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}

	s2 := f.Reopen(t)
	defer s2.Close()
	if got := s2.Len(); got != 2 {
		t.Errorf("Len after reopen = %d, want 2", got)
	}
	if d, ok := s2.Get("keep"); !ok || d.Children[0].Value != "persisted-v2" {
		t.Errorf("keep after reopen = %v, %v", d, ok)
	}
	if _, ok := s2.Get("gone"); ok {
		t.Error("deleted document resurrected by reopen")
	}
	if fi, ok := s2.(store.FunctionIndex); ok {
		if docs, _ := fi.DocsWithFunction("Get_Temp"); fmt.Sprint(docs) != fmt.Sprint([]string{"keep"}) {
			t.Errorf("index after reopen: Get_Temp in %v, want [keep]", docs)
		}
		if docs, _ := fi.DocsWithFunction("Get_Time"); fmt.Sprint(docs) != fmt.Sprint([]string{"fresh"}) {
			t.Errorf("index after reopen: Get_Time in %v, want [fresh]", docs)
		}
	}
}
