package peer

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"axml/internal/doc"
	"axml/internal/experiments"
	"axml/internal/schema"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// BenchmarkExchangeHandler drives the full /exchange path in-process — body
// cap and read, source-index lookup (the repeated body is parsed once),
// cached enforcement, rewriting with local service calls, XML
// serialization — the serving hot path the loadgen harness hits over the
// network. Run with -benchmem; the allocation budget is enforced by
// TestExchangeAllocBudget.
func BenchmarkExchangeHandler(b *testing.B) {
	p := newsPeer(b)
	h := p.Handler()
	body := []byte(identityExchangeXSD)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/exchange/today?mode=safe", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// newspaperPeer builds a peer over the paper's schema (*) holding "today",
// a newspaper shaped like perfbench's smallNewspaper: a Get_Temp call, then
// fifteen exhibits, every third one dated by a Get_Date call — about 1 KiB
// of markup, 2 KiB as the indented serializer renders it. It returns the peer and schema (*) rendered as an exchange body, an
// identity exchange under which every call is kept — the exchange-hot
// shape, where per-node costs of the rewriting dominate.
func newspaperPeer(tb testing.TB) (*Peer, []byte) {
	tb.Helper()
	s := schema.MustParseText(experiments.PaperSchemaText, nil)
	p := New("news", s)
	root := doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Daily Exhibition Guide")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))))
	for i := 0; i < 15; i++ {
		title := fmt.Sprintf("Show %d", i)
		ex := doc.Elem("exhibit", doc.Elem("title", doc.TextNode(title)))
		if i%3 == 0 {
			ex.Children = append(ex.Children, doc.Call("Get_Date", doc.Elem("title", doc.TextNode(title))))
		} else {
			ex.Children = append(ex.Children, doc.Elem("date", doc.TextNode(fmt.Sprintf("%02d/10", i+1))))
		}
		root.Children = append(root.Children, ex)
	}
	must(tb, p.Repo.Put("today", root))
	must(tb, p.Services.Register(opOf(tb, p, "Get_Temp", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("temp", doc.TextNode("15"))}, nil
	})))
	must(tb, p.Services.Register(opOf(tb, p, "Get_Date", func([]*doc.Node) ([]*doc.Node, error) {
		return []*doc.Node{doc.Elem("date", doc.TextNode("2002"))}, nil
	})))
	body, err := xsdint.String(schema.MustParseText(experiments.PaperSchemaText, nil), nil)
	must(tb, err)
	return p, []byte(body)
}

// BenchmarkExchangeHandlerNewspaper is BenchmarkExchangeHandler over
// newspaperPeer's document: large enough for per-node costs — the static
// check, the executor's walk, cloning the stored tree — to show. Its
// allocation budget is TestExchangeNewspaperAllocBudget.
func BenchmarkExchangeHandlerNewspaper(b *testing.B) {
	p, body := newspaperPeer(b)
	h := p.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/exchange/today?mode=safe", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
}

// BenchmarkDocGetHandler measures the read path: repository lookup plus XML
// serialization, no rewriting.
func BenchmarkDocGetHandler(b *testing.B) {
	p := newsPeer(b)
	h := p.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodGet, "/doc/today", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}

// TestExchangeAllocBudget is the allocation regression gate for the serving
// hot path: a warmed /exchange request must stay within budget. The budget
// has headroom over the measured figure (see EXPERIMENTS.md E-L1) so noise
// does not flake CI, while a reintroduced per-node or per-request allocation
// regression (the kind this PR removed) trips it. Skipped under -race, whose
// instrumentation changes allocation counts.
func TestExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	p := newsPeer(t)
	h := p.Handler()
	body := []byte(identityExchangeXSD)
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/exchange/today?mode=safe", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	run()              // warm the enforcement cache; the budget is for the steady state
	const budget = 145 // measured 111 allocs/op warmed (E-L1); ~30% headroom
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("warmed /exchange = %.0f allocs/op, budget %d", got, budget)
	}
}

// TestExchangeNewspaperAllocBudget is TestExchangeAllocBudget for the
// newspaper-shaped document, where a cost paid per node rather than per
// request trips the budget. It also pins the document's size and that the
// identity exchange keeps the calls.
func TestExchangeNewspaperAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	p, body := newspaperPeer(t)
	stored, _ := p.Repo.Get("today")
	if b, err := xmlio.String(stored); err != nil || len(b) < 1024 || len(b) > 3072 {
		t.Fatalf("newspaper document renders in %d bytes (err %v), want 1-3 KiB", len(b), err)
	}
	h := p.Handler()
	run := func() {
		req := httptest.NewRequest(http.MethodPost, "/exchange/today?mode=safe", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		if !bytes.Contains(w.Body.Bytes(), []byte("Get_Date")) {
			t.Fatalf("identity exchange invoked the calls: %s", w.Body.String())
		}
	}
	run()
	const budget = 320 // measured 245 allocs/op warmed (E-L1); ~30% headroom
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("warmed newspaper /exchange = %.0f allocs/op, budget %d", got, budget)
	}
}
