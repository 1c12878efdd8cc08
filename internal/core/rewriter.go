package core

import (
	"fmt"
	"strconv"
	"strings"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/schema"
	"axml/internal/telemetry"
)

// Mode selects the rewriting discipline.
type Mode uint8

const (
	// Safe guarantees success before invoking anything (Section 4).
	Safe Mode = iota
	// Possible proceeds when success is merely reachable, backtracking on
	// unlucky returns without un-invoking anything (Section 5).
	Possible
	// Mixed pre-invokes cheap side-effect-free calls to shrink the search,
	// then requires safety for the rest (Section 5, "A Mixed Approach").
	Mixed
)

func (m Mode) String() string {
	switch m {
	case Safe:
		return "safe"
	case Possible:
		return "possible"
	case Mixed:
		return "mixed"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// EngineKind selects between the eager Figure 3 analysis and the lazy
// Section 7 variant for every word-level decision.
type EngineKind uint8

const (
	// Eager builds the full reachable product, as in Figure 3.
	Eager EngineKind = iota
	// Lazy explores the product on demand with sink/marked pruning.
	Lazy
)

// Rewriter drives tree-level rewriting of intensional documents into an
// exchange schema: the Schema Enforcement module's core (Section 7).
type Rewriter struct {
	Compiled *Compiled
	// K bounds rewriting depth (Definition 7); typical values are 1–3.
	K int
	// Engine selects the word-level analysis implementation.
	Engine EngineKind
	// Invoker performs service calls; nil Rewriters can only Check.
	Invoker Invoker
	// ValidateReturns verifies every returned forest is an output instance
	// of the invoked function before splicing it (the Schema Enforcement
	// module's receive-side check). Default true in NewRewriter.
	ValidateReturns bool
	// StrictParams makes the rewriting fail when any function node's
	// parameters cannot be rewritten into its input type (the paper's
	// behaviour). When false, such functions are frozen instead: they can
	// still be kept, just never invoked.
	StrictParams bool
	// MaxCalls caps total invocations per rewriting as a runaway valve
	// (recursive services). Default 10000 in NewRewriter.
	MaxCalls int
	// PreInvoke guards the Mixed mode's speculative pass; defaults to
	// "no side effects and zero cost".
	PreInvoke func(*FuncInfo) bool
	// Converters optionally restructure non-conforming service results
	// before the exchange is failed (the paper's "automatic converters"
	// extension); tried in order, first conforming restructuring wins.
	Converters Converters
	// Audit, if set, records every invocation.
	Audit *Audit
	// Events, if set, observes every invocation-policy event (retries,
	// timeouts, breaker transitions…) after rewrite-ID stamping, in
	// addition to Audit and the Instruments counters — the peer hangs
	// its structured event log here.
	Events EventSink
	// Parallelism is the degree of the parallel materialization engine:
	// the maximum number of concurrently executing rewriting branches
	// (sibling subtrees, batched pre-invocations, pipelined safe-mode
	// calls). Values <= 1 select the sequential engine, byte-for-byte
	// identical to the original behavior including audit order.
	Parallelism int
	// Instruments, if set, reports the rewriting pipeline into a telemetry
	// registry (see instruments.go): per-mode latency, keep/invoke/defer/
	// backtrack decisions, per-endpoint call latency, bridged policy events
	// and tracing spans. Nil (the default) is a zero-overhead no-op.
	Instruments *Instruments

	ctx *schema.Context
}

// DefaultDepth is the rewriting depth bound selected when RewriterConfig
// leaves Depth zero.
const DefaultDepth = 2

// DefaultMaxCalls is the per-rewriting invocation budget selected when
// RewriterConfig leaves MaxCalls zero.
const DefaultMaxCalls = 10000

// RewriterConfig is the options struct behind NewRewriterWithConfig — the
// growth path that replaced the positional NewRewriter(sender, target, k,
// inv) constructor. The zero value is usable: depth DefaultDepth, eager
// engine, validated returns, strict parameters, a fresh Audit.
type RewriterConfig struct {
	// Depth bounds rewriting depth (Definition 7); 0 selects DefaultDepth.
	Depth int
	// Engine selects the word-level analysis (zero value: Eager).
	Engine EngineKind
	// Invoker performs service calls; nil configures a check-only rewriter.
	Invoker Invoker
	// Policies wrap Invoker with execution middleware (timeouts, retries,
	// circuit breaking — see internal/invoke). Policies[0] is outermost.
	Policies []InvokePolicy
	// SkipValidation disables the receive-side output-instance check
	// (Rewriter.ValidateReturns, inverted so the zero value validates).
	SkipValidation bool
	// LenientParams freezes functions whose parameters cannot be fixed
	// instead of failing (Rewriter.StrictParams, inverted).
	LenientParams bool
	// MaxCalls caps invocations per rewriting; 0 selects DefaultMaxCalls.
	MaxCalls int
	// PreInvoke guards the Mixed mode's speculative pass.
	PreInvoke func(*FuncInfo) bool
	// Converters restructure non-conforming service results.
	Converters Converters
	// Audit receives the invocation trail; nil allocates a fresh one, so a
	// configured rewriter always audits.
	Audit *Audit
	// Events optionally observes stamped policy events (Rewriter.Events).
	Events EventSink
	// Parallelism is the degree of the parallel materialization engine;
	// 0 selects DefaultParallelism (sequential execution).
	Parallelism int
	// Telemetry, if set, instruments the rewriter (and the shared Compiled's
	// word-level analyses) against this registry; see internal/telemetry.
	// Nil leaves every instrumentation path a no-op.
	Telemetry *telemetry.Registry
}

// NewRewriter builds a rewriter for the (sender, target) schema pair,
// compiling the pair analysis from scratch. It is the thin compatibility
// wrapper over NewRewriterWithConfig kept for the original positional API;
// note it leaves Audit nil (callers set it), unlike the config path.
func NewRewriter(sender, target *schema.Schema, k int, inv Invoker) *Rewriter {
	return NewRewriterFor(Compile(sender, target), k, inv)
}

// NewRewriterFor builds a rewriter over an existing compiled analysis — the
// positional compatibility wrapper; see NewRewriterForConfig.
func NewRewriterFor(c *Compiled, k int, inv Invoker) *Rewriter {
	return &Rewriter{
		Compiled:        c,
		K:               k,
		Invoker:         inv,
		ValidateReturns: true,
		StrictParams:    true,
		MaxCalls:        DefaultMaxCalls,
		ctx:             schema.NewContext(c.Target, c.Sender),
	}
}

// NewRewriterWithConfig builds a rewriter for the (sender, target) schema
// pair from an options struct, compiling the pair analysis from scratch.
// Callers serving many messages over the same pair should compile once (or
// use a CompiledCache) and build per-message rewriters with
// NewRewriterForConfig.
func NewRewriterWithConfig(sender, target *schema.Schema, cfg RewriterConfig) *Rewriter {
	return NewRewriterForConfig(Compile(sender, target), cfg)
}

// NewRewriterForConfig builds a rewriter over an existing compiled analysis
// from an options struct. The rewriter itself is cheap per-message state; the
// Compiled may be shared by any number of concurrent rewriters. Stateful
// policies (circuit breakers, concurrency limits) are instantiated here: to
// share breaker state across messages, wrap one Invoker with ApplyPolicies
// once and pass the result instead.
func NewRewriterForConfig(c *Compiled, cfg RewriterConfig) *Rewriter {
	depth := cfg.Depth
	if depth == 0 {
		depth = DefaultDepth
	}
	maxCalls := cfg.MaxCalls
	if maxCalls == 0 {
		maxCalls = DefaultMaxCalls
	}
	audit := cfg.Audit
	if audit == nil {
		audit = &Audit{}
	}
	parallelism := cfg.Parallelism
	if parallelism == 0 {
		parallelism = DefaultParallelism
	}
	inv := cfg.Invoker
	if inv != nil {
		inv = ApplyPolicies(inv, cfg.Policies)
	}
	var ins *Instruments
	if cfg.Telemetry != nil {
		ins = NewInstruments(cfg.Telemetry)
		c.SetInstruments(ins)
	}
	return &Rewriter{
		Compiled:        c,
		K:               depth,
		Engine:          cfg.Engine,
		Invoker:         inv,
		ValidateReturns: !cfg.SkipValidation,
		StrictParams:    !cfg.LenientParams,
		MaxCalls:        maxCalls,
		PreInvoke:       cfg.PreInvoke,
		Converters:      cfg.Converters,
		Audit:           audit,
		Events:          cfg.Events,
		Parallelism:     parallelism,
		Instruments:     ins,
		ctx:             schema.NewContext(c.Target, c.Sender),
	}
}

// Context exposes the validation context (target schema with sender-side
// signatures).
func (rw *Rewriter) Context() *schema.Context { return rw.ctx }

// wordOK dispatches the word-level verdict for the configured engine,
// through the Compiled's word-verdict memo: the verdict depends only on the
// token word, target, k, mode and engine, so repeated words across messages
// skip the automata constructions entirely.
func (rw *Rewriter) wordOK(tokens []Token, target *regex.Regex, mode Mode) (bool, error) {
	return rw.Compiled.WordVerdict(rw.Engine, mode, tokens, target, rw.K)
}

// ---------------------------------------------------------------------------
// Static checking (no invocations): can the forest be rewritten at all?

// CheckDocument reports whether the document can be rewritten into the
// target schema under the given mode, without invoking anything.
func (rw *Rewriter) CheckDocument(root *doc.Node, mode Mode) error {
	typ, err := rw.documentType(root)
	if err != nil {
		return err
	}
	return rw.CheckForest([]*doc.Node{root}, typ, mode)
}

// documentType returns the expected word type of the document root: the
// schema's distinguished root label when declared, else the root's own label.
func (rw *Rewriter) documentType(root *doc.Node) (*regex.Regex, error) {
	label := rw.Compiled.Target.Root
	if label == "" {
		if root.Kind != doc.Element {
			return nil, &NotSafeError{Msg: "document root is a function node and the target schema declares no root label"}
		}
		label = root.Label
	}
	if rw.Compiled.Target.Labels[label] == nil {
		return nil, &NotSafeError{Msg: fmt.Sprintf("root label %q is not declared by the target schema", label)}
	}
	return regex.Sym(rw.Compiled.Table.Intern(label)), nil
}

// CheckForest reports whether the forest can be rewritten into the word type
// typ (with every subtree an instance of the target schema), statically.
func (rw *Rewriter) CheckForest(forest []*doc.Node, typ *regex.Regex, mode Mode) error {
	sc := &staticCheck{rw: rw, mode: mode, paramsOK: map[*doc.Node]bool{}}
	return sc.forest(forest, funcsBottomUp(forest), typ, nil)
}

// checkPlanned is CheckForest over a forest p indexes: the check walks
// p.funcs instead of collecting them again, and records its parameter
// verdicts in p.params for the executor to follow.
func (rw *Rewriter) checkPlanned(forest []*doc.Node, p *plan, typ *regex.Regex, mode Mode) error {
	sc := &staticCheck{rw: rw, mode: mode, paramsOK: p.params}
	return sc.forest(forest, p.funcs, typ, nil)
}

// funcsBottomUp lists the function nodes of every tree of a forest in
// doc.FuncsBottomUp order.
func funcsBottomUp(forest []*doc.Node) []*doc.Node {
	var out []*doc.Node
	for _, tree := range forest {
		out = append(out, doc.FuncsBottomUp(tree)...)
	}
	return out
}

type staticCheck struct {
	rw       *Rewriter
	mode     Mode
	paramsOK map[*doc.Node]bool
	// scratch backs tokens() across the whole traversal: each word check
	// fully consumes its token slice before the next one is built (the word
	// engines never retain it), so one allocation serves every forest.
	scratch []Token
}

// forest checks one forest against a word type: parameters bottom-up (funcs
// lists the forest's function nodes in that order), then the root-label
// word, then each element subtree top-down.
func (sc *staticCheck) forest(forest, funcs []*doc.Node, typ *regex.Regex, path *pathSeg) error {
	for _, f := range funcs {
		ok, err := sc.funcParams(f, path)
		if err != nil {
			return err
		}
		sc.paramsOK[f] = ok
	}
	tokens := sc.tokens(forest)
	ok, err := sc.rw.wordOK(tokens, typ, sc.mode)
	if err != nil {
		return err
	}
	if !ok {
		return &NotSafeError{
			Path: pathString(path),
			Msg: fmt.Sprintf("word %v does not %s-rewrite into %s within depth %d",
				forestLabels(forest), sc.mode, typ.String(sc.rw.Compiled.Table), sc.rw.K),
		}
	}
	for i, tree := range forest {
		if tree.Kind == doc.Element {
			if err := sc.element(tree, path, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// funcParams decides whether f's parameters can be rewritten into its input
// type. Inner functions were memoized first (bottom-up order).
func (sc *staticCheck) funcParams(f *doc.Node, path *pathSeg) (bool, error) {
	if ok, done := sc.paramsOK[f]; done {
		return ok, nil
	}
	fail := func(msg string) (bool, error) {
		if sc.rw.StrictParams {
			return false, &NotSafeError{Path: pathString(path), Msg: msg}
		}
		return false, nil
	}
	c := sc.rw.Compiled
	in, isData, exists := c.InputType(c.Table.Intern(f.Label))
	if !exists {
		return fail(fmt.Sprintf("function %q is not declared by either schema", f.Label))
	}
	if isData {
		if !sc.dataChildrenOK(f.Children) {
			return fail(fmt.Sprintf("parameters of %q cannot become atomic data", f.Label))
		}
		return true, nil
	}
	// Rewriting the params must not consult the global failure path: a
	// failed parameter check freezes f instead of failing, unless strict.
	// The nested forest may share the token scratch: the enclosing word
	// builds its tokens only after every parameter check returned.
	seg := &pathSeg{parent: path, label: f.Label, index: paramSeg}
	if err := sc.forest(f.Children, funcsBottomUp(f.Children), in, seg); err != nil {
		if sc.rw.StrictParams {
			return false, err
		}
		return false, nil
	}
	return true, nil
}

// dataChildrenOK: a forest collapses to atomic data iff every member is a
// text node or an invocable function returning atomic data whose own
// parameters are fine.
func (sc *staticCheck) dataChildrenOK(children []*doc.Node) bool {
	c := sc.rw.Compiled
	for _, ch := range children {
		switch ch.Kind {
		case doc.Text:
			continue
		case doc.Func:
			fi := c.Func(c.Table.Intern(ch.Label))
			if fi == nil || !fi.Invocable || fi.Out != nil || sc.rw.K < 1 {
				return false
			}
			if ok := sc.paramsOK[ch]; !ok {
				// May not have been computed yet if called outside the
				// bottom-up sweep; compute on demand.
				ok2, err := sc.funcParams(ch, nil)
				if err != nil || !ok2 {
					return false
				}
				sc.paramsOK[ch] = ok2
			}
		default:
			return false
		}
	}
	return true
}

// element checks one element subtree top-down; e is child i of the forest
// at parent.
func (sc *staticCheck) element(e *doc.Node, parent *pathSeg, i int) error {
	// e's own segment lives on the stack for error reports; it is copied to
	// the heap only for element children to link to (escape analysis keeps
	// no parent-linked path on the stack across recursive calls), which
	// spares the leaves of the document an allocation each.
	at := pathSeg{parent: parent, label: e.Label, index: i}
	path := &at
	c := sc.rw.Compiled
	content, isData, declared := c.ContentModel(e.Label)
	if !declared {
		if sc.rw.ctx.Strict {
			return &NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("element %q is not declared by the target schema", e.Label)}
		}
		return nil // wildcard territory: unconstrained
	}
	if isData {
		if !sc.dataChildrenOK(e.Children) {
			return &NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("data element %q contains children that cannot become atomic data", e.Label)}
		}
		return nil
	}
	// Non-text structural check mirrors validation: stray text is fatal.
	for _, ch := range e.Children {
		if ch.Kind == doc.Text && strings.TrimSpace(ch.Value) != "" {
			return &NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("element %q has structured content but contains text", e.Label)}
		}
	}
	tokens := sc.tokens(e.Children)
	ok, err := sc.rw.wordOK(tokens, content, sc.mode)
	if err != nil {
		return err
	}
	if !ok {
		return &NotSafeError{
			Path: pathString(path),
			Msg: fmt.Sprintf("children %v do not %s-rewrite into %s within depth %d",
				e.ChildLabels(), sc.mode, content.String(c.Table), sc.rw.K),
		}
	}
	var own *pathSeg
	for j, ch := range e.Children {
		if ch.Kind == doc.Element {
			if own == nil {
				own = &pathSeg{parent: parent, label: e.Label, index: i}
			}
			if err := sc.element(ch, own, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// tokens builds word tokens from a forest, freezing functions whose
// parameters cannot be fixed and resolving pattern admissibility: a function
// token is frozen when it cannot be invoked.
func (sc *staticCheck) tokens(forest []*doc.Node) []Token {
	c := sc.rw.Compiled
	out := sc.scratch[:0]
	defer func() { sc.scratch = out }()
	for _, ch := range forest {
		if ch.Kind == doc.Text {
			continue
		}
		tok := Token{Sym: c.Table.Intern(ch.Label), Node: ch}
		if ch.Kind == doc.Func {
			if ok := sc.paramsOK[ch]; !ok {
				tok.Frozen = true
			}
		}
		out = append(out, tok)
	}
	return out
}

// pathSeg is one segment of a node path, linked to the path above it:
// label[index] for the index-th child of a forest, a bare label, or @label
// for a function's parameter forest. Segments are never modified, so any
// number of sibling paths share their common prefix and extending a path
// copies nothing; a path becomes a string only when pathString renders it
// for an error or event. The nil *pathSeg is the empty path.
type pathSeg struct {
	parent *pathSeg
	label  string
	index  int // a child position, or bareSeg / paramSeg
}

const (
	bareSeg  = -1 // renders as label
	paramSeg = -2 // renders as @label
)

// pathString renders a node path as /seg/seg/... in one exactly-sized
// allocation. It never stores a segment pointer, so paths built from stack
// segments (the static check's) stay on the stack.
func pathString(path *pathSeg) string {
	if path == nil {
		return ""
	}
	n := 0
	for s := path; s != nil; s = s.parent {
		n += 1 + len(s.label) // '/' + label
		switch {
		case s.index == paramSeg:
			n++ // '@'
		case s.index >= 0:
			n += 2 + decimalLen(s.index) // '[' digits ']'
		}
	}
	var b strings.Builder
	b.Grow(n)
	writePath(&b, path)
	return b.String()
}

// writePath writes the segments of path root first.
func writePath(b *strings.Builder, s *pathSeg) {
	if s == nil {
		return
	}
	writePath(b, s.parent)
	b.WriteByte('/')
	if s.index == paramSeg {
		b.WriteByte('@')
	}
	b.WriteString(s.label)
	if s.index >= 0 {
		var num [20]byte
		b.WriteByte('[')
		b.Write(strconv.AppendInt(num[:0], int64(s.index), 10))
		b.WriteByte(']')
	}
}

// decimalLen is the number of decimal digits of a non-negative int.
func decimalLen(i int) int {
	n := 1
	for ; i >= 10; i /= 10 {
		n++
	}
	return n
}

// forestLabels renders the non-text labels of a forest as "[a b c]" — the
// same shape fmt's %v gave the label slice it replaced, without building the
// intermediate slice.
func forestLabels(forest []*doc.Node) string {
	n := 2
	for _, node := range forest {
		if node.Kind != doc.Text {
			n += len(node.Label) + 1
		}
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteByte('[')
	first := true
	for _, node := range forest {
		if node.Kind == doc.Text {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(node.Label)
	}
	b.WriteByte(']')
	return b.String()
}
