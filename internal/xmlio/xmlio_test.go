package xmlio

import (
	"strings"
	"testing"

	"axml/internal/doc"
)

// paperXML is the example document from Section 7 of the paper (with the
// closing-tag typo of the original fixed).
const paperXML = `<?xml version="1.0"?>
<newspaper xmlns:int="http://www.activexml.com/ns/int">
  <title> The Sun </title>
  <date> 04/10/2002 </date>
  <int:fun endpointURL="http://www.forecast.com/soap" methodName="Get_Temp" namespaceURI="urn:xmethods-weather">
    <int:params>
      <int:param>
        <city>Paris</city>
      </int:param>
    </int:params>
  </int:fun>
  <int:fun endpointURL="http://www.timeout.com/paris" methodName="TimeOut" namespaceURI="urn:timeout-program">
    <int:params>
      <int:param> exhibits </int:param>
    </int:params>
  </int:fun>
</newspaper>
`

func TestParsePaperDocument(t *testing.T) {
	n, err := ParseString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	if n.Label != "newspaper" || n.Kind != doc.Element {
		t.Fatalf("root = %v %q", n.Kind, n.Label)
	}
	if len(n.Children) != 4 {
		t.Fatalf("children = %d want 4", len(n.Children))
	}
	gt := n.Children[2]
	if gt.Kind != doc.Func || gt.Label != "Get_Temp" {
		t.Fatalf("third child = %v %q", gt.Kind, gt.Label)
	}
	if gt.Service == nil || gt.Service.Endpoint != "http://www.forecast.com/soap" ||
		gt.Service.Namespace != "urn:xmethods-weather" {
		t.Errorf("service ref = %+v", gt.Service)
	}
	if len(gt.Children) != 1 || gt.Children[0].Label != "city" {
		t.Errorf("Get_Temp params = %v", gt.Children)
	}
	if gt.Children[0].Children[0].Value != "Paris" {
		t.Errorf("city value wrong")
	}
	to := n.Children[3]
	if to.Kind != doc.Func || len(to.Children) != 1 || to.Children[0].Kind != doc.Text {
		t.Errorf("TimeOut params = %v", to.Children)
	}
	if to.Children[0].Value != "exhibits" {
		t.Errorf("TimeOut param = %q", to.Children[0].Value)
	}
}

func TestRoundTrip(t *testing.T) {
	orig, err := ParseString(paperXML)
	if err != nil {
		t.Fatal(err)
	}
	s, err := String(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, s)
	}
	if !orig.Equal(back) {
		t.Errorf("round trip changed the document:\n%s\nvs\n%s", orig, back)
	}
	if !strings.Contains(s, `xmlns:int="http://www.activexml.com/ns/int"`) {
		t.Error("namespace declaration missing")
	}
}

func TestRoundTripPureData(t *testing.T) {
	n := doc.Elem("a", doc.Elem("b", doc.TextNode("x")), doc.Elem("c"))
	s, err := String(n)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s, "xmlns:int") {
		t.Error("namespace declared on a purely extensional document")
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Equal(back) {
		t.Error("round trip changed the document")
	}
}

func TestFunWithoutService(t *testing.T) {
	n := doc.Elem("root", doc.Call("F", doc.TextNode("p")))
	s, err := String(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	f := back.Children[0]
	if f.Kind != doc.Func || f.Label != "F" {
		t.Fatalf("func lost: %v", back)
	}
	if len(f.Children) != 1 || f.Children[0].Value != "p" {
		t.Errorf("params lost: %v", f.Children)
	}
}

func TestMultiNodeParam(t *testing.T) {
	// One int:param wrapping two elements contributes two parameter nodes.
	src := `<r xmlns:int="http://www.activexml.com/ns/int">
	  <int:fun methodName="F"><int:params>
	    <int:param><a/><b/></int:param>
	  </int:params></int:fun></r>`
	n, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	f := n.Children[0]
	if len(f.Children) != 2 || f.Children[0].Label != "a" || f.Children[1].Label != "b" {
		t.Errorf("params = %v", f.Children)
	}
}

func TestEscaping(t *testing.T) {
	n := doc.Elem("a", doc.TextNode(`<&>"special"`))
	s, err := String(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, s)
	}
	if back.Children[0].Value != `<&>"special"` {
		t.Errorf("escaping broke text: %q", back.Children[0].Value)
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		``,
		`text only`,
		`<a>`,
		`<a></b>`,
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:fun/></r>`,                             // no methodName
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:params/></r>`,                          // params outside fun
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:fun methodName="f"><x/></int:fun></r>`, // non-params inside fun
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:fun methodName="f">text</int:fun></r>`,
		`<r xmlns:int="http://www.activexml.com/ns/int"><int:fun methodName="f"><int:params><a/></int:params></int:fun></r>`,
	} {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) should fail", src)
		}
	}
}

func TestWhitespaceHandling(t *testing.T) {
	n, err := ParseString("<a>\n  <b>  hello  </b>\n  <c/>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Children) != 2 {
		t.Fatalf("whitespace text kept: %v", n.Children)
	}
	if n.Children[0].Children[0].Value != "hello" {
		t.Errorf("text not trimmed: %q", n.Children[0].Children[0].Value)
	}
}

func TestEmptyElements(t *testing.T) {
	n := doc.Elem("a", doc.Elem("empty"), doc.Call("F"))
	s, err := String(n)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "<empty/>") || !strings.Contains(s, "<int:fun") {
		t.Errorf("self-closing rendering wrong:\n%s", s)
	}
	back, err := ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	if !n.Equal(back) {
		t.Error("round trip changed the document")
	}
}

// TestNeedsEscape pins the printer's escape test to the byte set
// xml.EscapeText rewrites, on both sides of its short/long split and with
// the escape byte at the start, middle and end.
func TestNeedsEscape(t *testing.T) {
	for _, n := range []int{0, 1, 10, 63, 64, 65, 900} {
		clean := strings.Repeat("x", n)
		if needsEscape(clean) {
			t.Errorf("len %d: clean text reported as needing escape", n)
		}
		for c := 0; c < 256 && n > 0; c++ {
			for _, at := range []int{0, n / 2, n - 1} {
				b := []byte(clean)
				b[at] = byte(c)
				s := string(b)
				if got, want := needsEscape(s), strings.ContainsAny(s, "&<>'\"\t\n\r"); got != want {
					t.Fatalf("len %d, byte %#x at %d: needsEscape = %v, want %v", n, c, at, got, want)
				}
			}
		}
	}
}
