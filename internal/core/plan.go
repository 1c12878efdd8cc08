package core

import (
	"slices"

	"axml/internal/doc"
)

// plan is what the static check proved about the forest the executor is
// about to rewrite, in the form the executor follows. The check has to
// decide every word before the first call (Section 4) and so validates the
// whole forest once; the executor then visits only the spine — the elements
// with a function node somewhere below them — and never re-walks,
// re-tokenizes or re-matches a function-free subtree the check accepted.
//
// The plan is keyed by node identity and sized by the spine: a checked
// element absent from spine is function-free by construction, so clean
// elements cost no entry at all. Nodes spliced in from invocation results
// were never checked and are not in the plan; the executor gives them the
// full treatment (see executor.slots).
type plan struct {
	// spine holds every element of the forest with a function node below it.
	spine map[*doc.Node]struct{}
	// params records, for every function node the check visited, whether
	// its parameter forest was proved rewritable into the input type — and
	// so validated throughout.
	params map[*doc.Node]bool
	// funcs lists every function node of the forest in doc.FuncsBottomUp
	// order: the executor's parameter phase runs over it directly.
	funcs []*doc.Node
}

func newPlan() *plan {
	return &plan{params: map[*doc.Node]bool{}}
}

// onSpine reports whether a checked element has a function node below it.
func (p *plan) onSpine(n *doc.Node) bool {
	_, ok := p.spine[n]
	return ok
}

// proved reports whether f's parameters were checked and found rewritable.
// A nil plan (the streaming engine's executor) proves nothing.
func (p *plan) proved(f *doc.Node) bool {
	return p != nil && p.params[f]
}

// own returns the forest the executor rewrites in place of the caller's,
// copy-on-write: every spine element is shallow-copied with a fresh child
// slice, every function node is deep-cloned with its parameters, and every
// function-free subtree is the caller's own node, shared and never written.
// The input is left untouched, so a stored tree can be rewritten without
// cloning it first. The plan records the copies, as index would.
func (p *plan) own(forest []*doc.Node) []*doc.Node {
	out := make([]*doc.Node, len(forest))
	for i, n := range forest {
		out[i] = p.ownTree(n)
	}
	return out
}

// ownTree is own for one tree. It returns n itself exactly when n holds no
// function node.
func (p *plan) ownTree(n *doc.Node) *doc.Node {
	switch n.Kind {
	case doc.Func:
		c := n.Clone()
		p.indexTree(c)
		return c
	case doc.Element:
		var kids []*doc.Node
		for i, ch := range n.Children {
			c := p.ownTree(ch)
			if c == ch {
				continue
			}
			if kids == nil {
				kids = slices.Clone(n.Children)
			}
			kids[i] = c
		}
		if kids != nil {
			c := *n
			c.Children = kids
			p.addSpine(&c)
			return &c
		}
	}
	return n
}

// index records the plan of a forest the executor already owns (mixed
// mode's pre-invoked private clone) without copying anything: its spine,
// and its function nodes bottom-up.
func (p *plan) index(forest []*doc.Node) {
	for _, n := range forest {
		p.indexTree(n)
	}
}

// indexTree is index for one tree; it reports whether n holds a function
// node. The walk is post-order, which is doc.FuncsBottomUp's order.
func (p *plan) indexTree(n *doc.Node) bool {
	has := false
	for _, ch := range n.Children {
		if p.indexTree(ch) {
			has = true
		}
	}
	switch n.Kind {
	case doc.Func:
		p.funcs = append(p.funcs, n)
		return true
	case doc.Element:
		if has {
			p.addSpine(n)
		}
	}
	return has
}

func (p *plan) addSpine(n *doc.Node) {
	if p.spine == nil {
		p.spine = map[*doc.Node]struct{}{}
	}
	p.spine[n] = struct{}{}
}
