package peer

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
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
	const budget = 300 // measured 168 allocs/op warmed (E-L1; repeated bodies skip the parse); ~80% headroom
	if got := testing.AllocsPerRun(50, run); got > budget {
		t.Errorf("warmed /exchange = %.0f allocs/op, budget %d", got, budget)
	}
}
