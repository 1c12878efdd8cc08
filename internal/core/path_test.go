package core

import (
	"context"
	"errors"
	"io"
	"testing"

	"axml/internal/doc"
	"axml/internal/schema"
)

// pathSenderText declares a page of sections of items, each item holding a
// city and either a temperature or a call that yields one. Wrap takes a
// whole section as its parameter, so failures can sit below an @Wrap
// segment at depth.
const pathSenderText = `
root page
elem page = sec*
elem sec = item*
elem item = city.(Get|Wrap|temp)
elem city = data
elem temp = data
elem note = data
func Get = city -> temp
func Wrap = sec -> temp
`

// pathRewriter builds a rewriter from pathSenderText into the variant whose
// items must hold a materialized temperature — a target that admits no
// function symbol, so the streaming engine serves it too.
func pathRewriter(t *testing.T, inv Invoker, degree int) *Rewriter {
	t.Helper()
	sender := schema.MustParseText(pathSenderText, nil)
	target, err := schema.ParseTextShared(schema.NewShared(sender.Table), `
root page
elem page = sec*
elem sec = item*
elem item = city.temp
elem city = data
elem temp = data
elem note = data
func Get = city -> temp
func Wrap = sec -> temp
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	rw := NewRewriter(sender, target, 2, inv)
	rw.Audit = &Audit{}
	rw.Parallelism = degree
	rw.ValidateReturns = false // let bad answers reach the word checks
	return rw
}

// pathItem is an item whose temperature comes from a Get call for city.
func pathItem(city string) *doc.Node {
	return doc.Elem("item", doc.Elem("city", doc.TextNode(city)),
		doc.Call("Get", doc.Elem("city", doc.TextNode(city))))
}

// pathPage builds page/sec* with the given sections.
func pathPage(secs ...*doc.Node) *doc.Node { return doc.Elem("page", secs...) }

// twoTemps answers every call with two temperatures — a word no item
// accepts — when the call's city parameter is "bad", and with one otherwise.
var twoTemps = InvokerFunc(func(call *doc.Node) ([]*doc.Node, error) {
	out := []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}
	if len(call.Children) == 1 && len(call.Children[0].Children) == 1 &&
		call.Children[0].Children[0].Value == "bad" {
		out = append(out, doc.Elem("temp", doc.TextNode("16")))
	}
	return out, nil
})

// TestNotSafeErrorPaths pins the NotSafeError.Path strings of failures at
// depth three and below — indexed segments, @f parameter segments and the
// mixed-mode pre-invocation pass's bare segments — on the static check, the
// tree executor and the streaming engine. The expected strings are the ones
// the eagerly built []string paths rendered. A function's parameter segment
// hangs off the path of the forest whose phase 1 materializes it, which for
// the document forest is the empty path.
func TestNotSafeErrorPaths(t *testing.T) {
	cases := []struct {
		name   string
		doc    func() *doc.Node
		mode   Mode
		stream bool
		want   string
	}{
		{
			name: "check/text-in-structured",
			doc: func() *doc.Node {
				bad := pathItem("Rome")
				bad.Children = append([]*doc.Node{doc.TextNode("oops")}, bad.Children...)
				return pathPage(doc.Elem("sec", pathItem("Paris")),
					doc.Elem("sec", pathItem("Oslo"), pathItem("Lima"), bad))
			},
			mode: Safe,
			want: "/page[0]/sec[1]/item[2]",
		},
		{
			name: "check/param-word",
			doc: func() *doc.Node {
				inner := doc.Elem("item", doc.Elem("city", doc.TextNode("x")), doc.Elem("note", doc.TextNode("y")))
				return pathPage(doc.Elem("sec", doc.Elem("item", doc.Elem("city", doc.TextNode("Paris")),
					doc.Call("Wrap", doc.Elem("sec", inner)))))
			},
			mode: Possible,
			want: "/@Wrap/sec[0]/item[0]",
		},
		{
			name: "check/param-data",
			doc: func() *doc.Node {
				return pathPage(doc.Elem("sec", pathItem("Paris"),
					doc.Elem("item", doc.Elem("city", doc.TextNode("Oslo")),
						doc.Call("Get", doc.Elem("city", doc.Elem("note"))))))
			},
			mode: Safe,
			want: "/@Get/city[0]",
		},
		{
			name: "exec/word",
			doc: func() *doc.Node {
				return pathPage(doc.Elem("sec", pathItem("a")), doc.Elem("sec", pathItem("b")),
					doc.Elem("sec", pathItem("c"), pathItem("bad")))
			},
			mode: Safe,
			want: "/page[0]/sec[2]/item[1]",
		},
		{
			name: "exec/param-word",
			doc: func() *doc.Node {
				return pathPage(doc.Elem("sec", doc.Elem("item", doc.Elem("city", doc.TextNode("Paris")),
					doc.Call("Wrap", doc.Elem("sec", pathItem("c"), pathItem("bad"))))))
			},
			mode: Safe,
			want: "/@Wrap/sec[0]/item[1]",
		},
		{
			name: "mixed/bare-segments",
			doc: func() *doc.Node {
				return pathPage(doc.Elem("sec", doc.Elem("item", doc.Elem("city", doc.TextNode("Paris")),
					doc.Call("Wrap", doc.Elem("sec", pathItem("bad"))))))
			},
			mode: Mixed,
			want: "/page/sec/item/@Wrap/sec[0]/item[0]",
		},
		{
			name: "stream/text-in-structured",
			doc: func() *doc.Node {
				bad := pathItem("Rome")
				bad.Children = append([]*doc.Node{doc.TextNode("oops")}, bad.Children...)
				return pathPage(doc.Elem("sec", pathItem("Paris")),
					doc.Elem("sec", pathItem("Oslo"), pathItem("Lima"), bad))
			},
			mode:   Safe,
			stream: true,
			want:   "/page[0]/sec[1]/item[2]",
		},
		{
			name: "stream/island-word",
			doc: func() *doc.Node {
				return pathPage(doc.Elem("sec", pathItem("a")), doc.Elem("sec", pathItem("b")),
					doc.Elem("sec", pathItem("c"), pathItem("bad")))
			},
			mode:   Safe,
			stream: true,
			want:   "/page[0]/sec[2]/item[1]",
		},
	}
	for _, tc := range cases {
		for _, degree := range []int{1, 4} {
			rw := pathRewriter(t, twoTemps, degree)
			var err error
			if tc.stream {
				var res *StreamResult
				res, err = rw.RewriteDocumentStream(context.Background(), tc.doc(), io.Discard, tc.mode)
				if res == nil || !res.Streamed {
					t.Fatalf("%s: the streaming engine did not serve the rewrite", tc.name)
				}
			} else {
				_, err = rw.RewriteDocument(tc.doc(), tc.mode)
			}
			var nse *NotSafeError
			if !errors.As(err, &nse) {
				t.Fatalf("%s degree %d: want a NotSafeError, got %v", tc.name, degree, err)
			}
			if nse.Path != tc.want {
				t.Errorf("%s degree %d: path %q, want %q (%v)", tc.name, degree, nse.Path, tc.want, err)
			}
		}
	}
}

func BenchmarkPathString(b *testing.B) {
	var path *pathSeg
	for _, s := range []pathSeg{{label: "page", index: 0}, {label: "sec", index: 12},
		{label: "item", index: 3}, {label: "Get", index: paramSeg}, {label: "city", index: 0}} {
		path = &pathSeg{parent: path, label: s.label, index: s.index}
	}
	if got, want := pathString(path), "/page[0]/sec[12]/item[3]/@Get/city[0]"; got != want {
		b.Fatalf("pathString = %q, want %q", got, want)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := pathString(path); len(s) == 0 {
			b.Fatal("empty")
		}
	}
}
