package peer

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"axml/internal/core"
	"axml/internal/doc"
	"axml/internal/schema"
	"axml/internal/workload"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

// variantXSD renders the newspaper schema with its content models replaced
// and one extra unused data element, as an exchange schema: a receiver that
// wants some or all of the newspaper's calls materialized.
func variantXSD(t *testing.T, i int, replace ...string) string {
	t.Helper()
	src := strings.NewReplacer(replace...).Replace(newspaperSchema)
	src += fmt.Sprintf("elem unused%03d = data\n", i)
	s, err := schema.ParseText(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := xsdint.String(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// treeReference answers an exchange the way SendDocumentContext does with a
// freshly parsed exchange schema, serialized like the handler's response.
func treeReference(t *testing.T, ref *Peer, name, xsd string) []byte {
	t.Helper()
	exchange, err := xsdint.Parse(strings.NewReader(xsd), xsdint.Options{Table: ref.Schema.Table.Overlay()})
	if err != nil {
		t.Fatal(err)
	}
	out, err := ref.SendDocumentContext(context.Background(), name, exchange, core.Safe)
	if err != nil {
		t.Fatalf("%s: tree reference: %v", name, err)
	}
	var want bytes.Buffer
	if err := xmlio.WriteTo(&want, out); err != nil {
		t.Fatal(err)
	}
	return want.Bytes()
}

// checkSourceEquivalence posts each exchange schema twice — once as a
// source-index miss, once as a hit — and requires both responses to equal
// the tree reference byte for byte, with one compile per distinct schema.
func checkSourceEquivalence(t *testing.T, p, ref *Peer, name string, xsds []string) {
	t.Helper()
	h := p.Handler()
	misses := p.Enforcement.Stats().Misses
	for i, xsd := range xsds {
		want := treeReference(t, ref, name, xsd)
		for _, pass := range []string{"miss", "hit"} {
			got := postExchange(t, h, name, xsd)
			if got.Code != http.StatusOK {
				t.Fatalf("schema %d (%s): status %d: %s", i, pass, got.Code, got.Body.String())
			}
			if !bytes.Equal(want, got.Body.Bytes()) {
				t.Errorf("schema %d (%s): /exchange body diverges from the tree reference\n--- tree ---\n%s\n--- handler ---\n%s",
					i, pass, want, got.Body.String())
			}
		}
	}
	if got := p.Enforcement.Stats().Misses - misses; got != uint64(len(xsds)) {
		t.Errorf("%d distinct exchange schemas compiled %d times", len(xsds), got)
	}
}

// TestExchangeSourceEquivalence: serving a repeated exchange schema from the
// source index changes nothing a client can see — on the newspaper peer
// (the identity schema and variants that materialize one or both calls) and
// on peers over generated schemas.
func TestExchangeSourceEquivalence(t *testing.T) {
	t.Run("newspaper", func(t *testing.T) {
		xsds := []string{
			identityExchangeXSD,
			variantXSD(t, 0),
			variantXSD(t, 1, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)", "title.date.temp.(TimeOut|exhibit*)"),
			variantXSD(t, 2, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)", "title.date.temp.(exhibit|performance)*"),
			variantXSD(t, 3, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)", "title.date.(Get_Temp|temp).(exhibit|performance)*"),
		}
		checkSourceEquivalence(t, newsPeer(t), newsPeer(t), "today", xsds)
	})
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("workload-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			s := workload.RandomSchema(rng, workload.Options{Labels: 5, Funcs: 2})
			d, err := workload.NewGenerator(s, rng).Root()
			if err != nil {
				t.Fatal(err)
			}
			xsd, err := xsdint.String(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, ref := New("gen", s), New("gen", s)
			for _, q := range []*Peer{p, ref} {
				if err := q.Repo.Put("d", d); err != nil {
					t.Fatal(err)
				}
			}
			checkSourceEquivalence(t, p, ref, "d", []string{xsd})
		})
	}
}

// TestExchangeSourceErrorsNotCached: a body that fails to parse or to pass
// the one-unambiguity check, or that exceeds the cap, fails the same way on
// every repeat and records nothing; a one-byte change to a cached schema
// is a different schema.
func TestExchangeSourceErrorsNotCached(t *testing.T) {
	p := newsPeer(t)
	p.MaxRequestBytes = 2048
	h := p.Handler()
	// title may start either branch of the choice: not one-unambiguous.
	const upa = `<schema root="newspaper">
  <element name="newspaper"><complexType><choice>
    <sequence><element ref="title"/><element ref="date"/></sequence>
    <sequence><element ref="title"/><element ref="temp"/></sequence>
  </choice></complexType></element>
  <element name="title" type="xs:string"/>
  <element name="date" type="xs:string"/>
  <element name="temp" type="xs:string"/>
</schema>`
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed", `<schema root="newspaper"><element name=`, http.StatusBadRequest},
		{"non-deterministic", upa, http.StatusBadRequest},
		{"over the cap", identityExchangeXSD + strings.Repeat(" ", 2048), http.StatusRequestEntityTooLarge},
	} {
		for i := 0; i < 3; i++ {
			if got := postExchange(t, h, "today", tc.body); got.Code != tc.status {
				t.Errorf("%s, attempt %d: status %d, want %d: %s", tc.name, i+1, got.Code, tc.status, got.Body.String())
			}
		}
	}
	if st := p.Enforcement.Stats(); st.Misses != 0 || st.Size != 0 || p.Enforcement.Aliases() != 0 {
		t.Errorf("failed exchanges left cache state: %v, %d aliases", st, p.Enforcement.Aliases())
	}

	// The cached identity schema and a copy with one byte changed: the
	// copy declares "performancf", so serving it the cached analysis
	// would be wrong, and it must compile.
	for i := 0; i < 2; i++ {
		if got := postExchange(t, h, "today", identityExchangeXSD); got.Code != http.StatusOK {
			t.Fatalf("identity schema: status %d: %s", got.Code, got.Body.String())
		}
	}
	changed := strings.Replace(identityExchangeXSD, `name="performance"`, `name="performancf"`, 1)
	if len(changed) != len(identityExchangeXSD) || changed == identityExchangeXSD {
		t.Fatal("fixture: want a one-byte change")
	}
	if got := postExchange(t, h, "today", changed); got.Code != http.StatusOK {
		t.Fatalf("changed schema: status %d: %s", got.Code, got.Body.String())
	}
	if misses := p.Enforcement.Stats().Misses; misses != 2 {
		t.Errorf("identity schema twice plus a one-byte-changed copy compiled %d times, want 2", misses)
	}
}

// TestExchangeSourceAfterTableGrowth: once the peer's shared table interns
// another name, a cached body parses against a different overlay base, so
// its old alias must not be served: the same bytes miss once, then hit.
func TestExchangeSourceAfterTableGrowth(t *testing.T) {
	p := newsPeer(t)
	h := p.Handler()
	post := func() []byte {
		t.Helper()
		got := postExchange(t, h, "today", identityExchangeXSD)
		if got.Code != http.StatusOK {
			t.Fatalf("status %d: %s", got.Code, got.Body.String())
		}
		return got.Body.Bytes()
	}
	want := post()
	post()
	if st := p.Enforcement.Stats(); st.Misses != 1 {
		t.Fatalf("before growth: %d compiles, want 1", st.Misses)
	}

	// Enforcement on a parameter labelled with a name the schema does not
	// declare interns that name into the shared table, then fails.
	before := p.Schema.Table.Len()
	if _, err := p.EnforceIn("Get_Temp", []*doc.Node{doc.Elem("town", doc.TextNode("Paris"))}); err == nil {
		t.Fatal("EnforceIn accepted an undeclared parameter")
	}
	if p.Schema.Table.Len() == before {
		t.Fatal("fixture: EnforceIn did not grow the shared table")
	}

	misses := p.Enforcement.Stats().Misses
	for i := 0; i < 2; i++ {
		if got := post(); !bytes.Equal(got, want) {
			t.Errorf("after growth, request %d: body changed\n--- before ---\n%s\n--- after ---\n%s", i+1, want, got)
		}
	}
	if got := p.Enforcement.Stats().Misses - misses; got != 1 {
		t.Errorf("after growth, two identical exchanges compiled %d times, want 1", got)
	}
}

// TestExchangeSourceConcurrent: goroutines posting one new schema at once
// compile it exactly once and all receive the same document.
func TestExchangeSourceConcurrent(t *testing.T) {
	p := newsPeer(t)
	h := p.Handler()
	xsd := variantXSD(t, 7, "title.date.(Get_Temp|temp).(TimeOut|exhibit*)", "title.date.temp.(TimeOut|exhibit*)")
	const n = 8
	bodies := make([][]byte, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			got := postExchange(t, h, "today", xsd)
			if got.Code != http.StatusOK {
				t.Errorf("goroutine %d: status %d: %s", i, got.Code, got.Body.String())
			}
			bodies[i] = got.Body.Bytes()
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("goroutine %d got a different document\n--- 0 ---\n%s\n--- %d ---\n%s", i, bodies[0], i, bodies[i])
		}
	}
	if st := p.Enforcement.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Errorf("%d concurrent identical exchanges: %v, want 1 miss and %d hits", n, st, n-1)
	}
}
