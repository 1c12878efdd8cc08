package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"axml/internal/doc"
	"axml/internal/experiments"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// Every input is generated from the run seed. The daemons receive only what
// is generated here: schema (*) of the paper as their own schema, documents
// over PUT /doc, and exchange schemas as /exchange request bodies.

// vocabulary feeds the generated titles.
var vocabulary = strings.Fields(`gallery opera modern sculpture museum
	paris louvre orsay impressionist fresco baroque cubist portrait harbour
	evening lecture festival nocturne cinema archive garden pavilion print
	etching mosaic quartet sonata ballet theatre summer winter retrospective`)

// phrase returns words from the vocabulary totalling at least n bytes.
func phrase(rng *rand.Rand, n int) string {
	var b strings.Builder
	for b.Len() < n {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(vocabulary[rng.Intn(len(vocabulary))])
	}
	return b.String()
}

func dateText(rng *rand.Rand) string {
	return fmt.Sprintf("2002-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))
}

func text(label, value string) *doc.Node { return doc.Elem(label, doc.TextNode(value)) }

// call builds a function node; a non-empty endpoint pins the service the
// node is invoked at (its endpointURL).
func call(name, endpoint string, params ...*doc.Node) *doc.Node {
	if endpoint == "" {
		return doc.Call(name, params...)
	}
	return doc.CallAt(doc.ServiceRef{Endpoint: endpoint, Method: name}, params...)
}

// render serializes a document exactly as axmld serves it, and checks that
// parsing and serializing again gives the same bytes, so a byte comparison
// against a daemon's answer is a valid check.
func render(d *doc.Node) ([]byte, error) {
	var b bytes.Buffer
	if err := xmlio.Write(&b, d); err != nil {
		return nil, err
	}
	back, err := xmlio.Parse(bytes.NewReader(b.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("generated document does not parse: %w", err)
	}
	var again bytes.Buffer
	if err := xmlio.Write(&again, back); err != nil {
		return nil, err
	}
	if !bytes.Equal(b.Bytes(), again.Bytes()) {
		return nil, fmt.Errorf("generated document does not round-trip through xmlio")
	}
	return b.Bytes(), nil
}

// smallNewspaper generates a document of schema (*) of about size bytes:
// a Get_Temp call or a temp value, then exhibits until the size is reached,
// each holding a Get_Date call or a date. No call carries an endpoint.
func smallNewspaper(rng *rand.Rand, size int) ([]byte, error) {
	root := doc.Elem("newspaper", text("title", phrase(rng, 16)), text("date", dateText(rng)))
	if rng.Intn(2) == 0 {
		root.Children = append(root.Children, call("Get_Temp", "", text("city", phrase(rng, 5))))
	} else {
		root.Children = append(root.Children, text("temp", fmt.Sprintf("%dC", rng.Intn(35))))
	}
	for {
		title := phrase(rng, 12)
		ex := doc.Elem("exhibit", text("title", title))
		if rng.Intn(10) < 3 {
			ex.Children = append(ex.Children, call("Get_Date", "", text("title", title)))
		} else {
			ex.Children = append(ex.Children, text("date", dateText(rng)))
		}
		root.Children = append(root.Children, ex)
		body, err := render(root)
		if err != nil || len(body) >= size {
			return body, err
		}
	}
}

// bigNewspaper generates the exchange-materialize document: ~400 exhibits
// (~48 KiB), one Get_Temp call and 6-10 Get_Date calls, every call pinned to
// endpoint. It returns the rendered body and the number of calls.
func bigNewspaper(rng *rand.Rand, endpoint string) ([]byte, int, error) {
	root := doc.Elem("newspaper",
		text("title", phrase(rng, 16)),
		text("date", dateText(rng)),
		call("Get_Temp", endpoint, text("city", phrase(rng, 5))))
	n := 380 + rng.Intn(41)
	calls := 6 + rng.Intn(5)
	withCall := map[int]bool{}
	for len(withCall) < calls {
		withCall[rng.Intn(n)] = true
	}
	for i := 0; i < n; i++ {
		title := phrase(rng, 40)
		ex := doc.Elem("exhibit", text("title", title))
		if withCall[i] {
			ex.Children = append(ex.Children, call("Get_Date", endpoint, text("title", title)))
		} else {
			ex.Children = append(ex.Children, text("date", dateText(rng)))
		}
		root.Children = append(root.Children, ex)
	}
	body, err := render(root)
	return body, 1 + calls, err
}

// identitySchema renders schema (*) as XML Schema_int: the exchange schema
// of exchange-hot, under which every document already conforms.
func identitySchema() ([]byte, error) {
	s, err := schema.ParseText(experiments.PaperSchemaText, nil)
	if err != nil {
		return nil, err
	}
	out, err := xsdint.String(s, nil)
	return []byte(out), err
}

// materializeSchema renders variant i of the exchange-materialize target:
// schema (*) with newspaper = title.date.temp.(TimeOut|exhibit*) and
// exhibit = title.date, plus one unused element declaration that makes
// every variant a distinct schema for the daemon's compile cache.
func materializeSchema(i int) ([]byte, error) {
	src := strings.NewReplacer(
		"elem newspaper = title.date.(Get_Temp|temp).(TimeOut|exhibit*)",
		"elem newspaper = title.date.temp.(TimeOut|exhibit*)",
		"elem exhibit = title.(Get_Date|date)",
		"elem exhibit = title.date",
	).Replace(experiments.PaperSchemaText)
	src += fmt.Sprintf("elem unused%03d = data\n", i)
	s, err := schema.ParseText(src, nil)
	if err != nil {
		return nil, err
	}
	out, err := xsdint.String(s, nil)
	return []byte(out), err
}

// validator checks exchange responses against the schema the request sent.
// Each client owns its validators.
type validator struct {
	ctx *schema.Context
}

func newValidator(exchange []byte) (*validator, error) {
	s, err := xsdint.Parse(bytes.NewReader(exchange), xsdint.Options{Table: regex.NewTable()})
	if err != nil {
		return nil, err
	}
	ctx := schema.NewContext(s, nil)
	ctx.Strict = true
	return &validator{ctx: ctx}, nil
}

// check parses an /exchange response and validates it; forbidden names
// functions that must not remain in it.
func (v *validator) check(body []byte, forbidden ...string) error {
	d, err := xmlio.Parse(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("response does not parse: %w", err)
	}
	if err := v.ctx.Validate(d); err != nil {
		return fmt.Errorf("response does not validate: %w", err)
	}
	var left string
	d.Walk(func(n *doc.Node) bool {
		if n.Kind == doc.Func {
			for _, f := range forbidden {
				if n.Label == f {
					left = f
				}
			}
		}
		return left == ""
	})
	if left != "" {
		return fmt.Errorf("response still holds a %s call", left)
	}
	return nil
}
