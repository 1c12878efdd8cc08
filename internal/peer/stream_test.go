package peer

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/telemetry"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// streamExchangeXSD is an exchange schema whose content models admit no
// function symbol — the streamable shape: every function occurrence must be
// invoked, none can be kept.
const streamExchangeXSD = `
<schema root="newspaper">
  <element name="newspaper"><complexType><sequence>
    <element ref="title"/><element ref="date"/><element ref="temp"/>
    <element ref="exhibit" minOccurs="0" maxOccurs="unbounded"/>
  </sequence></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="date" type="xs:string"/>
  <element name="temp" type="xs:string"/>
  <element name="city" type="xs:string"/>
  <element name="exhibit"><complexType><sequence>
    <element ref="title"/><element ref="date"/>
  </sequence></complexType></element>
  <function id="Get_Temp"><params><param><element ref="city"/></param></params>
    <return><element ref="temp"/></return></function>
</schema>`

func plainDoc() *doc.Node {
	return doc.Elem("newspaper",
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Call("Get_Temp", doc.Elem("city", doc.TextNode("Paris"))),
	)
}

func postExchange(t *testing.T, h http.Handler, name, xsd string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/exchange/"+name+"?mode=safe", strings.NewReader(xsd))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestExchangeStreaming: /exchange answers with exactly the bytes of the
// tree reference (SendDocumentContext + xmlio.WriteTo on an identical peer),
// whether the streaming engine serves the target or falls back to the tree
// engine, and the stream counters say which one ran.
func TestExchangeStreaming(t *testing.T) {
	ref := newsPeer(t)
	p := newsPeer(t)
	p.Telemetry = telemetry.NewRegistry()
	for _, q := range []*Peer{ref, p} {
		if err := q.Repo.Put("plain", plainDoc()); err != nil {
			t.Fatal(err)
		}
	}
	h := p.Handler()

	for _, tc := range []struct {
		doc, xsd string
		metric   string
		labels   []string
	}{
		{"plain", streamExchangeXSD, "axml_stream_rewrites_total", []string{"result", "streamed"}},
		{"today", identityExchangeXSD, "axml_stream_fallbacks_total", []string{"reason", "target"}},
	} {
		exchange, err := xsdint.Parse(strings.NewReader(tc.xsd), xsdint.Options{Table: ref.Schema.Table.Overlay()})
		if err != nil {
			t.Fatal(err)
		}
		out, err := ref.SendDocumentContext(context.Background(), tc.doc, exchange, core.Safe)
		if err != nil {
			t.Fatalf("%s: tree reference: %v", tc.doc, err)
		}
		var want bytes.Buffer
		if err := xmlio.WriteTo(&want, out); err != nil {
			t.Fatal(err)
		}

		before, _ := p.Telemetry.Value(tc.metric, tc.labels...)
		got := postExchange(t, h, tc.doc, tc.xsd)
		if got.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.doc, got.Code, got.Body.String())
		}
		if ct := got.Header().Get("Content-Type"); ct != "text/xml; charset=utf-8" {
			t.Errorf("%s: Content-Type = %q", tc.doc, ct)
		}
		if !bytes.Equal(want.Bytes(), got.Body.Bytes()) {
			t.Errorf("%s: /exchange body diverges from the tree reference\n--- tree ---\n%s\n--- handler ---\n%s",
				tc.doc, want.String(), got.Body.String())
		}
		if after, _ := p.Telemetry.Value(tc.metric, tc.labels...); after != before+1 {
			t.Errorf("%s: %s%v went %v -> %v, want +1", tc.doc, tc.metric, tc.labels, before, after)
		}
	}
}

// TestExchangeStreamingErrors: failures that occur before the first flushed
// byte keep their clean HTTP statuses on the streaming path.
func TestExchangeStreamingErrors(t *testing.T) {
	p := newsPeer(t)
	h := p.Handler()
	if w := postExchange(t, h, "missing", streamExchangeXSD); w.Code != http.StatusNotFound {
		t.Errorf("missing document: status %d, want 404", w.Code)
	}
	// "today" embeds a TimeOut call the streamable target cannot keep and
	// Safe mode refuses to invoke: refused before any output byte.
	if w := postExchange(t, h, "today", streamExchangeXSD); w.Code != http.StatusUnprocessableEntity {
		t.Errorf("refused rewriting: status %d, want 422", w.Code)
	}
}

// TestExchangeStreamingAbort: when enforcement fails after response bytes
// left the server, the connection is aborted rather than closed as if the
// truncated document were complete.
func TestExchangeStreamingAbort(t *testing.T) {
	p := newsPeer(t)
	// A document whose long valid function-free prefix overflows the
	// emitter's buffer (a function child would start an island and buffer
	// the rest) before a final element the content model rejects.
	fat := strings.Repeat("x", 100)
	kids := []*doc.Node{
		doc.Elem("title", doc.TextNode("The Sun")),
		doc.Elem("date", doc.TextNode("04/10/2002")),
		doc.Elem("temp", doc.TextNode("15")),
	}
	for i := 0; i < 800; i++ {
		kids = append(kids, doc.Elem("exhibit",
			doc.Elem("title", doc.TextNode(fat)),
			doc.Elem("date", doc.TextNode("2002"))))
	}
	kids = append(kids, doc.Elem("performance", doc.TextNode("rejected")))
	if err := p.Repo.Put("long", doc.Elem("newspaper", kids...)); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(p.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/exchange/long?mode=safe", "text/xml", strings.NewReader(streamExchangeXSD))
	if err != nil {
		return // aborted before the status line is acceptable too
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d before the failure point; headers must have been committed", resp.StatusCode)
	}
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("reading an aborted streamed response must fail, not end cleanly")
	}
}
