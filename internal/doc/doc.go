// Package doc implements the intensional document model of Milo et al.
// (Definition 1): ordered labeled trees whose nodes are either extensional
// data (elements and text values) or *function nodes* — embedded Web-service
// calls whose children subtrees are the call's parameters. Invoking a
// function node replaces it, in place, by the forest the service returns.
package doc

import (
	"fmt"
	"strings"
)

// Kind discriminates the three node kinds of an intensional document.
type Kind uint8

const (
	// Element is an ordinary XML element with a label and children.
	Element Kind = iota
	// Text is a leaf holding an atomic data value.
	Text
	// Func is a function node: an embedded service call whose children are
	// its parameters.
	Func
)

func (k Kind) String() string {
	switch k {
	case Element:
		return "element"
	case Text:
		return "text"
	case Func:
		return "func"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ServiceRef carries the information needed to reach the Web service behind
// a function node — in the XML syntax, the endpointURL, methodName and
// namespaceURI attributes of an int:fun element. The Method alone identifies
// the function in the simple model; the other fields matter for SOAP
// transport.
type ServiceRef struct {
	Endpoint  string
	Method    string
	Namespace string
}

// Node is one node of an intensional document. Fields are used according to
// Kind:
//
//   - Element: Label is the element name, Children its content;
//   - Text: Value holds the data value (Label is empty, no Children);
//   - Func: Label is the function name, Children are the parameter forest,
//     and Service optionally pins the concrete endpoint.
//
// Nodes are mutable: use Clone before handing a document to code that
// mutates it. The rewriter in internal/core is not such code — it copies on
// write and never modifies the tree it is given.
type Node struct {
	Kind     Kind
	Label    string
	Value    string
	Service  *ServiceRef
	Children []*Node
}

// Elem builds an element node.
func Elem(label string, children ...*Node) *Node {
	return &Node{Kind: Element, Label: label, Children: children}
}

// TextNode builds a text leaf.
func TextNode(value string) *Node {
	return &Node{Kind: Text, Value: value}
}

// Call builds a function node with the given parameters.
func Call(name string, params ...*Node) *Node {
	return &Node{Kind: Func, Label: name, Children: params}
}

// CallAt is Call with an explicit service reference.
func CallAt(ref ServiceRef, params ...*Node) *Node {
	r := ref
	return &Node{Kind: Func, Label: ref.Method, Service: &r, Children: params}
}

// Clone returns a deep copy of the node.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Kind: n.Kind, Label: n.Label, Value: n.Value}
	if n.Service != nil {
		ref := *n.Service
		c.Service = &ref
	}
	if len(n.Children) > 0 {
		c.Children = make([]*Node, len(n.Children))
		for i, ch := range n.Children {
			c.Children[i] = ch.Clone()
		}
	}
	return c
}

// CloneForest deep-copies a forest.
func CloneForest(forest []*Node) []*Node {
	out := make([]*Node, len(forest))
	for i, n := range forest {
		out[i] = n.Clone()
	}
	return out
}

// Equal reports deep structural equality (Service references are compared by
// value; nil Service equals nil only).
func (n *Node) Equal(m *Node) bool {
	if n == nil || m == nil {
		return n == m
	}
	if n.Kind != m.Kind || n.Label != m.Label || n.Value != m.Value {
		return false
	}
	if (n.Service == nil) != (m.Service == nil) {
		return false
	}
	if n.Service != nil && *n.Service != *m.Service {
		return false
	}
	if len(n.Children) != len(m.Children) {
		return false
	}
	for i := range n.Children {
		if !n.Children[i].Equal(m.Children[i]) {
			return false
		}
	}
	return true
}

// Walk visits n and its descendants in document order (pre-order). The visit
// function may mutate the node it receives; returning false prunes the walk
// below that node.
func (n *Node) Walk(visit func(*Node) bool) {
	if n == nil || !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Count returns the number of nodes in the tree.
func (n *Node) Count() int {
	count := 0
	n.Walk(func(*Node) bool { count++; return true })
	return count
}

// CountFuncs returns the number of function nodes in the tree.
func (n *Node) CountFuncs() int {
	count := 0
	n.Walk(func(m *Node) bool {
		if m.Kind == Func {
			count++
		}
		return true
	})
	return count
}

// HasFuncs reports whether any function node remains — i.e. whether the
// document is still intensional.
func (n *Node) HasFuncs() bool {
	found := false
	n.Walk(func(m *Node) bool {
		if m.Kind == Func {
			found = true
		}
		return !found
	})
	return found
}

// sizeOverhead approximates the resident bytes of one Node struct plus its
// bookkeeping (child-slice headers, allocator rounding); ServiceRef adds its
// own share. The figure feeds buffered-memory accounting, not allocation.
const (
	sizeOverhead    = 80
	serviceOverhead = 56
)

// Size estimates the resident memory of the subtree in bytes: node structs,
// label/value string bytes, child pointer slots and service references. The
// streaming engine reports its buffered frontier through this estimate.
func (n *Node) Size() int {
	if n == nil {
		return 0
	}
	sz := sizeOverhead + len(n.Label) + len(n.Value) + 8*len(n.Children)
	if n.Service != nil {
		sz += serviceOverhead + len(n.Service.Endpoint) + len(n.Service.Method) + len(n.Service.Namespace)
	}
	for _, c := range n.Children {
		sz += c.Size()
	}
	return sz
}

// ChildLabels returns the labels of the node's children, in order — the word
// w the per-node rewriting step works on. Text children have no label in the
// word model; they are skipped (atomic content is typed by the "data"
// keyword, not by the content-model word).
func (n *Node) ChildLabels() []string {
	out := make([]string, 0, len(n.Children))
	for _, c := range n.Children {
		if c.Kind != Text {
			out = append(out, c.Label)
		}
	}
	return out
}

// OutermostFuncs returns the function nodes of the forest that are not
// nested inside another function node's parameters (but may be nested inside
// elements). These are exactly the calls the top-down rewriting phase is
// allowed to invoke; inner calls become invocable only after their enclosing
// call's parameters have been dealt with.
func OutermostFuncs(forest []*Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Kind == Func {
			out = append(out, n)
			return // children are parameters: not outermost
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, n := range forest {
		walk(n)
	}
	return out
}

// FuncsBottomUp returns every function node of the tree ordered so that a
// function nested in another's parameters appears before it — the order the
// parameter-checking phase of the rewriting algorithm needs ("start from the
// deepest functions and recursively move upward").
func FuncsBottomUp(root *Node) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.Kind == Func {
			out = append(out, n)
		}
	}
	walk(root)
	return out
}

// ReplaceChild splices repl in place of the i-th child of n, returning an
// error if i is out of range. It is the tree operation behind Definition 4's
// rewriting step t →v t'.
func (n *Node) ReplaceChild(i int, repl []*Node) error {
	if i < 0 || i >= len(n.Children) {
		return fmt.Errorf("doc: ReplaceChild index %d out of range [0,%d)", i, len(n.Children))
	}
	next := make([]*Node, 0, len(n.Children)-1+len(repl))
	next = append(next, n.Children[:i]...)
	next = append(next, repl...)
	next = append(next, n.Children[i+1:]...)
	n.Children = next
	return nil
}

// IndexOfChild returns the index of child in n.Children (pointer identity),
// or -1.
func (n *Node) IndexOfChild(child *Node) int {
	for i, c := range n.Children {
		if c == child {
			return i
		}
	}
	return -1
}

// String renders the tree in a compact indented form for debugging and
// error messages.
func (n *Node) String() string {
	var b strings.Builder
	n.write(&b, 0)
	return b.String()
}

func (n *Node) write(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	switch n.Kind {
	case Text:
		fmt.Fprintf(b, "%s%q\n", indent, n.Value)
	case Element:
		fmt.Fprintf(b, "%s<%s>\n", indent, n.Label)
		for _, c := range n.Children {
			c.write(b, depth+1)
		}
	case Func:
		fmt.Fprintf(b, "%s@%s()\n", indent, n.Label)
		for _, c := range n.Children {
			c.write(b, depth+1)
		}
	}
}

// ForestString renders a forest.
func ForestString(forest []*Node) string {
	var b strings.Builder
	for _, n := range forest {
		n.write(&b, 0)
	}
	return b.String()
}
