package peer

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"axml/internal/store"
	"axml/internal/wal"
)

// materializeExchangeXSD is the receiver of the paper's schema (***): it
// accepts no function node, so every exchange invokes Get_Temp and, in
// possible mode, TimeOut.
var materializeExchangeXSD = strings.Replace(identityExchangeXSD,
	`<choice><function ref="TimeOut"/><element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/></choice>`,
	`<element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/>`, 1)

// backendPeers returns newsPeer over each storage backend — mem, wal and
// disk — holding the same Figure 2 document.
func backendPeers(t *testing.T) map[string]*Peer {
	t.Helper()
	wals, err := store.OpenDurable(store.Options{Dir: t.TempDir(), Sync: wal.SyncNone})
	must(t, err)
	disk, err := store.OpenDisk(store.Options{Dir: t.TempDir(), HotCache: 1})
	must(t, err)
	peers := map[string]*Peer{}
	for name, s := range map[string]store.DocStore{store.BackendMem: store.NewRepository(), store.BackendWAL: wals, store.BackendDisk: disk} {
		p := newsPeer(t)
		today, _ := p.Repo.Get("today")
		p.Repo = s
		must(t, s.Put("today", today))
		t.Cleanup(func() { s.Close() })
		peers[name] = p
	}
	return peers
}

// exchange POSTs one exchange and returns the response body, failing on a
// non-200 status.
func exchange(t *testing.T, h http.Handler, mode, xsd string) []byte {
	req := httptest.NewRequest(http.MethodPost, "/exchange/today?mode="+mode, strings.NewReader(xsd))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Errorf("%s exchange: status %d: %s", mode, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

func getDoc(t *testing.T, h http.Handler) []byte {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/doc/today", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("GET /doc/today: status %d", w.Code)
	}
	return w.Body.Bytes()
}

// TestExchangeLeavesStoredDocument: /exchange rewrites the stored tree it
// reads through View without cloning it, so the rewriter must never modify
// it. Fifty exchanges that invoke Get_Temp and TimeOut leave GET /doc's
// bytes unchanged on every backend, and every exchange still materializes.
func TestExchangeLeavesStoredDocument(t *testing.T) {
	for name, p := range backendPeers(t) {
		h := p.Handler()
		before := getDoc(t, h)
		for i := 0; i < 50; i++ {
			mode, xsd := "safe", identityExchangeXSD
			if i%2 == 1 {
				mode, xsd = "possible", materializeExchangeXSD
			}
			out := exchange(t, h, mode, xsd)
			if !bytes.Contains(out, []byte("<temp>15</temp>")) {
				t.Fatalf("%s: exchange %d did not invoke Get_Temp:\n%s", name, i, out)
			}
			if mode == "possible" && !bytes.Contains(out, []byte("Dali")) {
				t.Fatalf("%s: exchange %d did not invoke TimeOut:\n%s", name, i, out)
			}
		}
		if after := getDoc(t, h); !bytes.Equal(before, after) {
			t.Errorf("%s: exchanges modified the stored document:\n%s\nwas\n%s", name, after, before)
		}
	}
}

// TestExchangeConcurrentSharedDocument: concurrent exchanges — tree and
// streaming engine, invoking, keeping and refusing — read and rewrite one
// shared stored tree while GET /doc serializes it. Run under -race, this is
// the data-race check of the copy-on-write contract; every response must be
// the one a lone exchange of the same kind produces.
func TestExchangeConcurrentSharedDocument(t *testing.T) {
	kinds := []struct{ mode, xsd string }{
		{"safe", identityExchangeXSD},        // tree engine: calls Get_Temp, keeps TimeOut
		{"possible", materializeExchangeXSD}, // tree engine: calls both
		{"mixed", materializeExchangeXSD},    // pre-invokes both
		{"safe", materializeExchangeXSD},     // streaming engine: refused
	}
	type answer struct {
		code int
		body string
	}
	send := func(h http.Handler, k int) answer {
		req := httptest.NewRequest(http.MethodPost, "/exchange/today?mode="+kinds[k].mode, strings.NewReader(kinds[k].xsd))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return answer{w.Code, w.Body.String()}
	}
	for name, p := range backendPeers(t) {
		h := p.Handler()
		before := getDoc(t, h)
		want := make([]answer, len(kinds))
		for k := range kinds {
			want[k] = send(h, k)
		}
		if want[0].code != http.StatusOK || want[3].code == http.StatusOK {
			t.Fatalf("%s: unexpected reference answers: %+v", name, want)
		}
		var wg sync.WaitGroup
		errs := make(chan error, 64)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 12; i++ {
					k := (g + i) % len(kinds)
					if got := send(h, k); got != want[k] {
						errs <- fmt.Errorf("%s exchange diverged: %+v, want %+v", kinds[k].mode, got, want[k])
						return
					}
					r := httptest.NewRecorder()
					h.ServeHTTP(r, httptest.NewRequest(http.MethodGet, "/doc/today", nil))
					if !bytes.Equal(r.Body.Bytes(), before) {
						errs <- fmt.Errorf("GET /doc changed under concurrent exchanges: %s", r.Body.Bytes())
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("%s: %v", name, err)
		}
	}
}
