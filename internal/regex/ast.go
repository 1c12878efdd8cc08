package regex

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Op identifies the shape of a Regex node.
type Op uint8

const (
	// OpNever is the empty language ∅ (matches nothing).
	OpNever Op = iota
	// OpEmpty is the empty word ε (matches only the empty word).
	OpEmpty
	// OpSym matches exactly one occurrence of a single symbol.
	OpSym
	// OpClass matches exactly one occurrence of any symbol in a Class
	// (wildcards and namespace exclusions).
	OpClass
	// OpConcat matches the concatenation of its subexpressions.
	OpConcat
	// OpAlt matches any one of its subexpressions.
	OpAlt
	// OpStar matches zero or more repetitions of its single subexpression.
	OpStar
)

// Regex is an immutable regular expression over Symbols. Build values only
// through the constructor functions; they maintain the canonical form
// invariants that the rest of the package relies on:
//
//   - Concat and Alt nodes are flattened (no nested same-op children),
//     have ≥ 2 children, and contain no ε (Concat) / ∅ (Alt) children;
//   - ∅ absorbs concatenation; Alt children are deduplicated by Key;
//   - Star is never applied to ε, ∅, or another Star.
//
// The zero value is ∅.
type Regex struct {
	Op   Op
	Sym  Symbol                  // valid when Op == OpSym
	Cls  Class                   // valid when Op == OpClass
	Subs []*Regex                // valid when Op is OpConcat, OpAlt (len ≥ 2) or OpStar (len 1)
	key  atomic.Pointer[string]  // memoized canonical key
	pos  atomic.Pointer[PosInfo] // memoized Glushkov analysis (see Positions)
}

var (
	never = &Regex{Op: OpNever}
	empty = &Regex{Op: OpEmpty}
)

// Never returns ∅, the empty language.
func Never() *Regex { return never }

// Empty returns ε, the empty-word language.
func Empty() *Regex { return empty }

// Sym returns the single-symbol expression.
func Sym(s Symbol) *Regex { return &Regex{Op: OpSym, Sym: s} }

// ClassOf returns an expression matching one occurrence of any symbol in c.
// An empty class normalizes to ∅.
func ClassOf(c Class) *Regex {
	if c.IsEmpty() {
		return never
	}
	return &Regex{Op: OpClass, Cls: c}
}

// Any returns the wildcard expression matching any single symbol.
func Any() *Regex { return ClassOf(AnyClass()) }

// Concat returns the concatenation of the given expressions, in canonical
// form. Concat() is ε.
func Concat(rs ...*Regex) *Regex {
	subs := make([]*Regex, 0, len(rs))
	for _, r := range rs {
		switch r.Op {
		case OpNever:
			return never
		case OpEmpty:
			// drop
		case OpConcat:
			subs = append(subs, r.Subs...)
		default:
			subs = append(subs, r)
		}
	}
	switch len(subs) {
	case 0:
		return empty
	case 1:
		return subs[0]
	}
	return &Regex{Op: OpConcat, Subs: subs}
}

// Alt returns the union of the given expressions, in canonical form
// (flattened, ∅ dropped, duplicates removed). Alt() is ∅.
func Alt(rs ...*Regex) *Regex {
	subs := make([]*Regex, 0, len(rs))
	seen := make(map[string]bool, len(rs))
	var add func(r *Regex)
	add = func(r *Regex) {
		switch r.Op {
		case OpNever:
			return
		case OpAlt:
			for _, s := range r.Subs {
				add(s)
			}
		default:
			k := r.Key()
			if !seen[k] {
				seen[k] = true
				subs = append(subs, r)
			}
		}
	}
	for _, r := range rs {
		add(r)
	}
	switch len(subs) {
	case 0:
		return never
	case 1:
		return subs[0]
	}
	return &Regex{Op: OpAlt, Subs: subs}
}

// Star returns r*, in canonical form.
func Star(r *Regex) *Regex {
	switch r.Op {
	case OpNever, OpEmpty:
		return empty
	case OpStar:
		return r
	}
	return &Regex{Op: OpStar, Subs: []*Regex{r}}
}

// Plus returns r+ ≡ r.r*.
func Plus(r *Regex) *Regex { return Concat(r, Star(r)) }

// Opt returns r? ≡ (r|ε).
func Opt(r *Regex) *Regex { return Alt(r, empty) }

// Unbounded marks a Repeat with no upper bound (XML Schema
// maxOccurs="unbounded").
const Unbounded = -1

// Repeat returns r{min,max}. max == Unbounded means no upper bound.
// Repeat panics if min < 0 or (max != Unbounded && max < min).
func Repeat(r *Regex, min, max int) *Regex {
	if min < 0 || (max != Unbounded && max < min) {
		panic("regex: invalid repetition bounds")
	}
	parts := make([]*Regex, 0, min+1)
	for i := 0; i < min; i++ {
		parts = append(parts, r)
	}
	switch {
	case max == Unbounded:
		parts = append(parts, Star(r))
	default:
		// (r?){max-min} appended as nested options so that e.g. r{0,2}
		// is (r(r)?)? rather than r?r? — both are correct; the nested
		// form preserves one-unambiguity of deterministic content models.
		opt := Empty()
		for i := 0; i < max-min; i++ {
			opt = Opt(Concat(r, opt))
		}
		parts = append(parts, opt)
	}
	return Concat(parts...)
}

// Nullable reports whether the language of r contains the empty word.
func (r *Regex) Nullable() bool {
	switch r.Op {
	case OpEmpty:
		return true
	case OpNever, OpSym, OpClass:
		return false
	case OpStar:
		return true
	case OpConcat:
		for _, s := range r.Subs {
			if !s.Nullable() {
				return false
			}
		}
		return true
	case OpAlt:
		for _, s := range r.Subs {
			if s.Nullable() {
				return true
			}
		}
		return false
	}
	panic("regex: bad op")
}

// IsNever reports whether r is the canonical empty language ∅. Because the
// constructors propagate ∅, this is a complete emptiness test for values
// built through them.
func (r *Regex) IsNever() bool { return r.Op == OpNever }

// Key returns a canonical string key for r: two structurally equal
// expressions have equal keys. Keys are memoized and used as hash-map
// identities for derivative-based DFA states.
func (r *Regex) Key() string {
	if k := r.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	r.writeKey(&b)
	// Memoizing on a shared node is safe: Regex values are immutable after
	// construction and the computed key is deterministic, so racing writers
	// publish identical strings through the atomic pointer.
	k := b.String()
	r.key.Store(&k)
	return k
}

func (r *Regex) writeKey(b *strings.Builder) {
	switch r.Op {
	case OpNever:
		b.WriteByte('0')
	case OpEmpty:
		b.WriteByte('1')
	case OpSym:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(int(r.Sym)))
	case OpClass:
		b.WriteByte('c')
		if r.Cls.Negated {
			b.WriteByte('!')
		}
		for _, s := range r.Cls.Syms {
			b.WriteString(strconv.Itoa(int(s)))
			b.WriteByte(',')
		}
	case OpConcat:
		b.WriteByte('(')
		for _, s := range r.Subs {
			s.writeKey(b)
			b.WriteByte('.')
		}
		b.WriteByte(')')
	case OpAlt:
		b.WriteByte('[')
		// Children order is semantically irrelevant for Alt; sort keys so
		// that a|b and b|a share a key.
		keys := make([]string, len(r.Subs))
		for i, s := range r.Subs {
			keys[i] = s.Key()
		}
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('|')
		}
		b.WriteByte(']')
	case OpStar:
		b.WriteByte('*')
		r.Subs[0].writeKey(b)
	}
}

// Equal reports whether r and s denote structurally equal expressions
// (modulo Alt child order). It is *not* a language-equivalence test; see
// automata.Equivalent for that.
func (r *Regex) Equal(s *Regex) bool { return r == s || r.Key() == s.Key() }

// Alphabet appends to dst every symbol that appears in r (in leaves or in
// class sets, including negated ones) and returns the extended slice,
// sorted and deduplicated.
func (r *Regex) Alphabet(dst []Symbol) []Symbol {
	var walk func(r *Regex)
	walk = func(r *Regex) {
		switch r.Op {
		case OpSym:
			dst = append(dst, r.Sym)
		case OpClass:
			dst = append(dst, r.Cls.Syms...)
		case OpConcat, OpAlt, OpStar:
			for _, s := range r.Subs {
				walk(s)
			}
		}
	}
	walk(r)
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dedupSymbols(dst)
}

// HasWildcard reports whether r contains a negated class (a leaf that can
// match symbols outside any fixed alphabet).
func (r *Regex) HasWildcard() bool {
	switch r.Op {
	case OpClass:
		return r.Cls.Negated
	case OpConcat, OpAlt, OpStar:
		for _, s := range r.Subs {
			if s.HasWildcard() {
				return true
			}
		}
	}
	return false
}

// Size returns the number of nodes in r, a convenient measure of schema
// size for the complexity experiments.
func (r *Regex) Size() int {
	n := 1
	for _, s := range r.Subs {
		n += s.Size()
	}
	return n
}
