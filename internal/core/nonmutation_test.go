package core

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"axml/internal/doc"
	"axml/internal/workload"
	"axml/internal/xmlio"
)

// snapshot serializes a forest under a throwaway holder element, so any
// change to any node of it — labels, values, children, service references —
// changes the bytes.
func snapshot(t *testing.T, forest []*doc.Node) string {
	t.Helper()
	s, err := xmlio.String(doc.Elem("holder", forest...))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mutationCase is one (rewriter, document) pair of the non-mutation
// contract. rw builds a fresh rewriter, with a fresh invoker, per run.
type mutationCase struct {
	name string
	rw   func(degree int) *Rewriter
	doc  func() *doc.Node
}

// mutationCases covers the Figure 2 document against targets that keep,
// call, refuse and fail, the streamable targets of the stream and path
// tests, and random (schema, instance) pairs from internal/workload.
func mutationCases(t *testing.T) []mutationCase {
	exhibit := doc.Elem("exhibit", doc.Elem("title", doc.TextNode("Dali")), doc.Elem("date", doc.TextNode("2002")))
	stubs := func(timeout ...*doc.Node) Invoker {
		return stubInvoker{
			"Get_Temp": ret(doc.Elem("temp", doc.TextNode("15"))),
			"TimeOut":  ret(timeout...),
			"Get_Date": ret(doc.Elem("date", doc.TextNode("2003"))),
		}
	}
	paper := func(newspaper string, inv func() Invoker) func(int) *Rewriter {
		return func(degree int) *Rewriter {
			rw := paperRewriter(t, newspaper, inv())
			rw.Parallelism = degree
			return rw
		}
	}
	datedDoc := func() *doc.Node {
		root := fig2doc()
		root.Children = root.Children[:3] // drop TimeOut: exhibits follow
		for _, title := range []string{"Dali", "Miro"} {
			root.Children = append(root.Children, doc.Elem("exhibit", doc.Elem("title", doc.TextNode(title)),
				doc.Call("Get_Date", doc.Elem("title", doc.TextNode(title)))))
		}
		root.Children = append(root.Children, exhibit.Clone())
		return root
	}
	cases := []mutationCase{
		{"fig2/keep-TimeOut", paper("title.date.temp.(TimeOut|exhibit*)", func() Invoker { return stubs(exhibit) }), fig2doc},
		{"fig2/call-TimeOut", paper("title.date.temp.exhibit*", func() Invoker { return stubs(exhibit, exhibit) }), fig2doc},
		{"fig2/unlucky-TimeOut", paper("title.date.temp.exhibit*", func() Invoker {
			return stubs(doc.Elem("performance", doc.TextNode("Carmen")))
		}), fig2doc},
		{"fig2/stream", func(degree int) *Rewriter {
			rw := streamableFigRewriter(t, stubs())
			rw.Parallelism = degree
			return rw
		}, datedDoc},
		{"path/island-failure", func(degree int) *Rewriter { return pathRewriter(t, twoTemps, degree) }, func() *doc.Node {
			return pathPage(doc.Elem("sec", pathItem("a")), doc.Elem("sec", pathItem("c"), pathItem("bad")))
		}},
		{"path/param-failure", func(degree int) *Rewriter { return pathRewriter(t, twoTemps, degree) }, func() *doc.Node {
			return pathPage(doc.Elem("sec", doc.Elem("item", doc.Elem("city", doc.TextNode("Paris")),
				doc.Call("Wrap", doc.Elem("sec", pathItem("c"), pathItem("bad"))))))
		}},
	}
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		s, _, _ := randomInstanceSetup(seed)
		cases = append(cases, mutationCase{
			name: fmt.Sprintf("workload/seed-%d", seed),
			rw: func(degree int) *Rewriter {
				rw := NewRewriter(s, s, 2, workload.NewSimInvoker(s, rand.New(rand.NewSource(seed))))
				rw.Audit = &Audit{}
				rw.Parallelism = degree
				return rw
			},
			doc: func() *doc.Node {
				_, root, _ := randomInstanceSetup(seed)
				return root
			},
		})
	}
	return cases
}

// TestRewriteLeavesInputUnchanged pins the rewriter's copy-on-write
// contract: RewriteDocument, RewriteForest and RewriteDocumentStream never
// modify the tree they are handed — in every mode, at every parallelism
// degree, whether the rewriting succeeds, is refused before any call, or
// fails after calls were made. This is what lets the peer rewrite stored
// trees it reads through DocStore.View without cloning them.
func TestRewriteLeavesInputUnchanged(t *testing.T) {
	ctx := context.Background()
	outcomes := map[string]int{}
	for _, tc := range mutationCases(t) {
		for _, mode := range []Mode{Safe, Possible, Mixed} {
			for _, degree := range []int{1, 4} {
				root := tc.doc()
				want := snapshot(t, []*doc.Node{root})
				where := fmt.Sprintf("%s %s degree %d", tc.name, mode, degree)

				_, err := tc.rw(degree).RewriteDocument(root, mode)
				outcomes[fmt.Sprint("document ok=", err == nil)]++
				if got := snapshot(t, []*doc.Node{root}); got != want {
					t.Fatalf("%s: RewriteDocument (err %v) modified its input:\n%s\nwant\n%s", where, err, got, want)
				}

				rw := tc.rw(degree)
				if content, isData, ok := rw.Compiled.ContentModel(root.Label); ok && !isData && root.Kind == doc.Element {
					forest := root.Children
					_, err := rw.RewriteForest(forest, content, mode)
					outcomes[fmt.Sprint("forest ok=", err == nil)]++
					if got := snapshot(t, []*doc.Node{root}); got != want {
						t.Fatalf("%s: RewriteForest (err %v) modified its input:\n%s\nwant\n%s", where, err, got, want)
					}
				}

				res, err := tc.rw(degree).RewriteDocumentStream(ctx, root, io.Discard, mode)
				outcomes[fmt.Sprint("stream ok=", err == nil, " streamed=", res != nil && res.Streamed)]++
				if got := snapshot(t, []*doc.Node{root}); got != want {
					t.Fatalf("%s: RewriteDocumentStream (err %v) modified its input:\n%s\nwant\n%s", where, err, got, want)
				}
			}
		}
	}
	// The corpus must reach every outcome, or the contract is untested
	// where it matters.
	for _, k := range []string{"document ok=true", "document ok=false", "forest ok=true", "forest ok=false",
		"stream ok=true streamed=true", "stream ok=false streamed=true", "stream ok=true streamed=false"} {
		if outcomes[k] == 0 {
			t.Errorf("no run ended %q; outcomes: %v", k, outcomes)
		}
	}
}
