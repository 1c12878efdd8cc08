// Package xmlio maps intensional documents to and from the XML syntax of
// Section 7 of the paper: function nodes are represented by elements in the
// namespace http://www.activexml.com/ns/int —
//
//	<int:fun endpointURL="http://forecast.example/soap"
//	         methodName="Get_Temp" namespaceURI="urn:weather">
//	  <int:params>
//	    <int:param><city>Paris</city></int:param>
//	  </int:params>
//	</int:fun>
//
// — appearing anywhere ordinary elements may appear. Parsing resolves
// namespaces through encoding/xml; serialization declares the int prefix on
// the root element whenever the document contains function nodes.
//
// Following the paper's single label domain, element namespaces other than
// the intensional one are not modeled: prefixed names collapse to their
// local part on parse, and labels should not contain ':'.
package xmlio

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"sync"

	"axml/internal/doc"
)

// Namespace is the intensional-markup namespace of the Active XML system.
const Namespace = "http://www.activexml.com/ns/int"

// parseBuf carries a reusable body buffer plus a bytes.Reader view over it;
// the reader satisfies io.ByteReader, which keeps xml.NewDecoder from
// wrapping it in a fresh 4 KiB bufio.Reader on every parse — the single
// largest allocation on the serving hot path before pooling.
type parseBuf struct {
	data []byte
	rd   bytes.Reader
}

var parseBufPool = sync.Pool{New: func() any { return new(parseBuf) }}

// maxPooledParseBuf bounds what a returned buffer may retain, so one huge
// request does not pin its memory in the pool forever.
const maxPooledParseBuf = 1 << 20

// ByteSource adapts r for encoding/xml. Readers that already implement
// io.ByteReader (strings.Reader, bytes.Reader, bufio.Reader) pass through
// untouched; anything else — an http request body, typically — is drained
// into a pooled buffer first. The release func must be called once the parse
// is finished (decoded tokens are copies, so nothing references the buffer
// afterwards); err carries any read failure, including the typed
// *http.MaxBytesError a capped body produces.
func ByteSource(r io.Reader) (src io.Reader, release func(), err error) {
	if _, ok := r.(io.ByteReader); ok {
		return r, func() {}, nil
	}
	b := parseBufPool.Get().(*parseBuf)
	b.data, err = readAll(b.data[:0], r)
	if err != nil {
		parseBufPool.Put(b)
		return nil, nil, err
	}
	b.rd.Reset(b.data)
	return &b.rd, func() {
		if cap(b.data) <= maxPooledParseBuf {
			parseBufPool.Put(b)
		}
	}, nil
}

// readAll is io.ReadAll appending into a caller-owned buffer.
func readAll(buf []byte, r io.Reader) ([]byte, error) {
	if len(buf) == 0 && cap(buf) == 0 {
		buf = make([]byte, 0, 512)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// Parse reads one intensional XML document.
func Parse(r io.Reader) (*doc.Node, error) {
	src, release, err := ByteSource(r)
	if err != nil {
		return nil, fmt.Errorf("xmlio: %w", err)
	}
	defer release()
	dec := xml.NewDecoder(src)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil, fmt.Errorf("xmlio: no root element")
		}
		if err != nil {
			return nil, fmt.Errorf("xmlio: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return parseElement(dec, t)
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, fmt.Errorf("xmlio: stray text %q before root element", string(t))
			}
		case xml.ProcInst, xml.Comment, xml.Directive:
			// skip prolog
		}
	}
}

// ParseString parses from a string.
func ParseString(s string) (*doc.Node, error) { return Parse(strings.NewReader(s)) }

// parseElement parses the element that start opens, dispatching on the
// intensional namespace.
func parseElement(dec *xml.Decoder, start xml.StartElement) (*doc.Node, error) {
	if start.Name.Space == Namespace {
		if start.Name.Local != "fun" {
			return nil, fmt.Errorf("xmlio: unexpected intensional element <int:%s>", start.Name.Local)
		}
		return parseFun(dec, start)
	}
	n := doc.Elem(start.Name.Local)
	children, err := parseChildren(dec, start.Name)
	if err != nil {
		return nil, err
	}
	n.Children = children
	return n, nil
}

// parseChildren consumes tokens until the matching end element, dropping
// whitespace-only text when element children are present.
func parseChildren(dec *xml.Decoder, parent xml.Name) ([]*doc.Node, error) {
	var children []*doc.Node
	hasElem := false
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: inside <%s>: %w", parent.Local, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			hasElem = true
			child, err := parseElement(dec, t)
			if err != nil {
				return nil, err
			}
			children = append(children, child)
		case xml.CharData:
			s := string(t)
			if strings.TrimSpace(s) != "" {
				children = append(children, doc.TextNode(strings.TrimSpace(s)))
			}
		case xml.EndElement:
			_ = hasElem
			return children, nil
		}
	}
}

// parseFun parses an <int:fun> element.
func parseFun(dec *xml.Decoder, start xml.StartElement) (*doc.Node, error) {
	ref := doc.ServiceRef{}
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "endpointURL":
			ref.Endpoint = a.Value
		case "methodName":
			ref.Method = a.Value
		case "namespaceURI":
			ref.Namespace = a.Value
		}
	}
	if ref.Method == "" {
		return nil, fmt.Errorf("xmlio: <int:fun> without methodName")
	}
	var n *doc.Node
	if ref.Endpoint == "" && ref.Namespace == "" {
		n = doc.Call(ref.Method)
	} else {
		n = doc.CallAt(ref)
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: inside <int:fun %s>: %w", ref.Method, err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space == Namespace && t.Name.Local == "params" {
				params, err := parseParams(dec)
				if err != nil {
					return nil, err
				}
				n.Children = append(n.Children, params...)
				continue
			}
			return nil, fmt.Errorf("xmlio: unexpected <%s> inside <int:fun>", t.Name.Local)
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, fmt.Errorf("xmlio: stray text inside <int:fun>")
			}
		case xml.EndElement:
			return n, nil
		}
	}
}

// parseParams parses <int:params> as a sequence of <int:param> wrappers,
// each contributing its content nodes as parameters.
func parseParams(dec *xml.Decoder) ([]*doc.Node, error) {
	var out []*doc.Node
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, fmt.Errorf("xmlio: inside <int:params>: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if t.Name.Space != Namespace || t.Name.Local != "param" {
				return nil, fmt.Errorf("xmlio: unexpected <%s> inside <int:params>", t.Name.Local)
			}
			kids, err := parseChildren(dec, t.Name)
			if err != nil {
				return nil, err
			}
			out = append(out, kids...)
		case xml.CharData:
			if strings.TrimSpace(string(t)) != "" {
				return nil, fmt.Errorf("xmlio: stray text inside <int:params>")
			}
		case xml.EndElement:
			return out, nil
		}
	}
}

// writeBufPool recycles serialization buffers: a document is rendered into a
// pooled bytes.Buffer and flushed to the destination in one Write, so the
// hot serving path performs no per-node fmt formatting or writer calls.
var writeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledWriteBuf bounds what a returned buffer may retain.
const maxPooledWriteBuf = 1 << 20

// Write serializes the document with two-space indentation and an XML
// declaration.
func Write(w io.Writer, n *doc.Node) error {
	buf := writeBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledWriteBuf {
			writeBufPool.Put(buf)
		}
	}()
	buf.WriteString(xml.Header)
	p := &printer{b: buf}
	p.node(n, 0, n.HasFuncs())
	buf.WriteByte('\n')
	_, err := w.Write(buf.Bytes())
	return err
}

// flushWriterPool recycles the bufio.Writers behind WriteTo and Emitter:
// serialization streams through a fixed 32 KiB window instead of
// materializing the whole document a second time.
var flushWriterPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 32<<10) }}

// WriteTo serializes the document straight to w through a pooled
// bufio.Writer: same bytes as Write, but without an intermediate
// whole-document buffer — large responses flush in 32 KiB chunks.
func WriteTo(w io.Writer, n *doc.Node) error {
	bw := flushWriterPool.Get().(*bufio.Writer)
	bw.Reset(w)
	defer func() {
		bw.Reset(io.Discard)
		flushWriterPool.Put(bw)
	}()
	bw.WriteString(xml.Header)
	p := &printer{b: bw}
	p.node(n, 0, n.HasFuncs())
	bw.WriteByte('\n')
	return bw.Flush()
}

// String serializes to a string.
func String(n *doc.Node) (string, error) {
	var b strings.Builder
	if err := Write(&b, n); err != nil {
		return "", err
	}
	return b.String(), nil
}

// MustString serializes, panicking on error (nodes cannot normally fail).
func MustString(n *doc.Node) string {
	s, err := String(n)
	if err != nil {
		panic(err)
	}
	return s
}

// sink is the minimal writer surface the printer needs: satisfied by both
// bytes.Buffer (one-shot batch serialization) and bufio.Writer (direct
// streaming to a destination). Error handling stays out of the printer —
// bytes.Buffer cannot fail and bufio.Writer keeps the first error sticky
// until Flush reports it.
type sink interface {
	io.Writer
	WriteString(s string) (int, error)
	WriteByte(b byte) error
}

type printer struct {
	b sink
}

// indents covers the common nesting depths with precomputed two-space runs.
const indents = "                                                                "

func (p *printer) indent(depth int) {
	for n := 2 * depth; n > 0; {
		step := min(n, len(indents))
		p.b.WriteString(indents[:step])
		n -= step
	}
}

// escape writes s with XML text escaping; documents overwhelmingly carry
// clean text, so the scan-then-copy fast path avoids touching each rune.
func (p *printer) escape(s string) {
	if !needsEscape(s) {
		p.b.WriteString(s)
		return
	}
	_ = xml.EscapeText(p.b, []byte(s))
}

// escapeBytes are the bytes xml.EscapeText rewrites; escapeTable marks them.
const escapeBytes = "&<>'\"\t\n\r"

var escapeTable = func() (t [256]bool) {
	for i := 0; i < len(escapeBytes); i++ {
		t[escapeBytes[i]] = true
	}
	return t
}()

// needsEscape reports whether s holds a byte of escapeBytes. Every text
// and attribute value of a document passes through it, and nearly all are
// clean: a table lookup per byte serves short values, and one vectorized
// strings.IndexByte pass per escape byte serves long ones, both several
// times faster than strings.ContainsAny's per-byte set test.
func needsEscape(s string) bool {
	if len(s) < 64 {
		for i := 0; i < len(s); i++ {
			if escapeTable[s[i]] {
				return true
			}
		}
		return false
	}
	for i := 0; i < len(escapeBytes); i++ {
		if strings.IndexByte(s, escapeBytes[i]) >= 0 {
			return true
		}
	}
	return false
}

// attr writes ` name="value"` with attribute-value escaping.
func (p *printer) attr(name, value string) {
	p.b.WriteByte(' ')
	p.b.WriteString(name)
	p.b.WriteString(`="`)
	p.escape(value)
	p.b.WriteByte('"')
}

func (p *printer) nsDecl(declareNS bool) {
	if declareNS {
		p.attr("xmlns:int", Namespace)
	}
}

func (p *printer) node(n *doc.Node, depth int, declareNS bool) {
	switch n.Kind {
	case doc.Text:
		p.indent(depth)
		p.escape(n.Value)
		p.b.WriteByte('\n')
	case doc.Element:
		p.indent(depth)
		p.b.WriteByte('<')
		p.b.WriteString(n.Label)
		p.nsDecl(declareNS)
		if len(n.Children) == 0 {
			p.b.WriteString("/>\n")
			return
		}
		if len(n.Children) == 1 && n.Children[0].Kind == doc.Text {
			p.b.WriteByte('>')
			p.escape(n.Children[0].Value)
			p.b.WriteString("</")
			p.b.WriteString(n.Label)
			p.b.WriteString(">\n")
			return
		}
		p.b.WriteString(">\n")
		for _, c := range n.Children {
			p.node(c, depth+1, false)
		}
		p.indent(depth)
		p.b.WriteString("</")
		p.b.WriteString(n.Label)
		p.b.WriteString(">\n")
	case doc.Func:
		ref := doc.ServiceRef{Method: n.Label}
		if n.Service != nil {
			ref = *n.Service
		}
		p.indent(depth)
		p.b.WriteString("<int:fun")
		p.nsDecl(declareNS)
		if ref.Endpoint != "" {
			p.attr("endpointURL", ref.Endpoint)
		}
		p.attr("methodName", ref.Method)
		if ref.Namespace != "" {
			p.attr("namespaceURI", ref.Namespace)
		}
		if len(n.Children) == 0 {
			p.b.WriteString("/>\n")
			return
		}
		p.b.WriteString(">\n")
		p.indent(depth + 1)
		p.b.WriteString("<int:params>\n")
		for _, c := range n.Children {
			p.indent(depth + 2)
			p.b.WriteString("<int:param>\n")
			p.node(c, depth+3, false)
			p.indent(depth + 2)
			p.b.WriteString("</int:param>\n")
		}
		p.indent(depth + 1)
		p.b.WriteString("</int:params>\n")
		p.indent(depth)
		p.b.WriteString("</int:fun>\n")
	}
}
