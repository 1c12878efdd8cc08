// Streaming enforcement: a one-pass SAX-style drive of the rewriting
// machinery with O(depth) resident memory.
//
// The tree engine (exec.go) materializes the whole document, statically
// checks it, then rewrites. The streaming engine consumes token events and
// keeps only a frontier:
//
//   - one frame per open element holding a *residual target*: the Brzozowski
//     derivative of the element's content model by the symbols of the
//     children already emitted. For a function-free prefix the derivative is
//     an exact quotient — a suffix completes the word iff it rewrites into
//     the residual — so accepted children stream straight to the writer and
//     are never retained;
//   - an *island*: from the first function child onward, the rest of the
//     element's children are buffered, because keep-or-invoke decisions and
//     result splices are word-global to the right of a function occurrence.
//     At the element's close the island is resolved by the *real* executor
//     (rewriteWord against the residual, element recursion for the
//     survivors), so decisions, instrument counters and audit records come
//     from the same code path as the tree engine;
//   - function subtrees themselves (parameters travel with the call) and a
//     data element's children from its first non-text child on (they are
//     collapsed at the close tag; collapseToData is inherently bounded).
//     Text streams through: the emitter holds a lone text child back until
//     the element's form is decided, exactly as the batch printer chooses.
//
// Streaming is restricted to configurations where it provably matches the
// tree engine byte for byte: Safe mode (Possible-mode backtracking revisits
// emitted prefixes) and targets whose content models admit no function
// symbol at any position (so no function can be *kept*, which also
// guarantees the output needs no xmlns:int declaration). Everything else
// falls back to the tree path.
//
// Audit equivalence: the tree engine records phase-1 parameter
// materializations for the whole document first (doc.FuncsBottomUp order),
// then word-level and recursive records in document order. The streaming
// engine materializes each function at its arrival event — sources deliver
// complete subtrees at close-tag time, which *is* bottom-up order — into a
// phase-1 buffer, captures per-element bundles as frames close, and splices
// phase1 ++ bundle(root) into the audit at the end: the same order, merely
// assembled instead of chronological.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/telemetry"
	"axml/internal/xmlio"
)

// ErrStreamUnsupported reports input or configuration the streaming engine
// cannot handle; callers holding the document as a tree should re-run on
// the tree path (RewriteDocumentStream does so automatically).
var ErrStreamUnsupported = errors.New("core: streaming enforcement unavailable")

// streamFallbackReasons enumerates the causes pre-registered on the
// axml_stream_fallbacks_total counter.
var streamFallbackReasons = []string{"mode", "target", "func-root", "wild-func"}

// StreamResult reports how a streaming rewrite went.
type StreamResult struct {
	// Streamed is false when the tree engine served the request; then
	// FallbackReason names why ("mode", "target", "func-root", "wild-func").
	Streamed       bool
	FallbackReason string
	// PeakBufferedBytes/Nodes measure the largest resident frontier —
	// the O(depth) claim, observable per rewrite.
	PeakBufferedBytes int
	PeakBufferedNodes int
	// BytesWritten counts output bytes that reached the writer.
	BytesWritten int64
	// FirstByte is the latency to the first output byte (0 if none left
	// the buffer before completion).
	FirstByte time.Duration
	// Calls is the number of audited invocations.
	Calls int
}

// CanStream reports whether the streaming engine handles this
// rewriter/mode combination; reason is "" when it does.
func (rw *Rewriter) CanStream(mode Mode) (bool, string) {
	if mode != Safe {
		return false, "mode"
	}
	if !rw.Compiled.StreamableTarget() {
		return false, "target"
	}
	return true, ""
}

// StreamableTarget reports whether no target content model admits a
// function (or pattern-expanded function) symbol at any position. Then a
// keep decision can never succeed, every function is surely invoked, and
// streamed output is provably function-free. Computed once per Compiled.
func (c *Compiled) StreamableTarget() bool {
	c.streamOnce.Do(func() { c.streamable = c.computeStreamable() })
	return c.streamable
}

func (c *Compiled) computeStreamable() bool {
	for label := range c.Target.Labels {
		r, isData, ok := c.ContentModel(label)
		if !ok || isData || r == nil {
			continue
		}
		for _, cls := range regex.Positions(r).Classes {
			if cls.Negated {
				return false // could admit a function symbol
			}
			for _, s := range cls.Syms {
				if c.funcs[s] != nil {
					return false
				}
			}
		}
	}
	return true
}

// streamPrescan reports whether the tree can stream: a function node under
// a target-undeclared (wildcard) element survives rewriting untouched, and
// the emitter cannot represent it without the root xmlns:int declaration
// the batch printer would add. One O(n) pointer walk, no allocation.
// Function parameters reset the wildcard flag: parameters of an invoked
// call are consumed, and a call that cannot be invoked fails the word
// check on both engines.
func (rw *Rewriter) streamPrescan(n *doc.Node, wild bool) bool {
	switch n.Kind {
	case doc.Func:
		if wild {
			return false
		}
		for _, c := range n.Children {
			if !rw.streamPrescan(c, false) {
				return false
			}
		}
	case doc.Element:
		_, _, declared := rw.Compiled.ContentModel(n.Label)
		w := wild || !declared
		for _, c := range n.Children {
			if !rw.streamPrescan(c, w) {
				return false
			}
		}
	}
	return true
}

// RewriteDocumentStream enforces the exchange schema on root and writes the
// serialized result to w in one pass, falling back to the tree engine (plus
// direct serialization) for configurations streaming cannot handle. Like
// RewriteDocumentContext it never modifies root, so a stored tree can be
// passed as is.
//
// A stage timer on ctx (telemetry.StagesFrom) receives the rewrite stage
// and, on fallback, the serialize stage; a streamed pass serializes as it
// rewrites, so all of it is attributed to rewrite.
func (rw *Rewriter) RewriteDocumentStream(ctx context.Context, root *doc.Node, w io.Writer, mode Mode) (*StreamResult, error) {
	reason := ""
	if ok, r := rw.CanStream(mode); !ok {
		reason = r
	} else if root.Kind != doc.Element {
		reason = "func-root"
	} else if !rw.streamPrescan(root, false) {
		reason = "wild-func"
	}
	st := telemetry.StagesFrom(ctx)
	t0 := time.Now()
	if reason == "" {
		res, err := rw.runStream(ctx, xmlio.NewTreeSource(root), w)
		st.Set(telemetry.StageRewrite, time.Since(t0))
		return res, err
	}
	rw.Instruments.countStreamFallback(reason)
	res := &StreamResult{FallbackReason: reason}
	out, calls, err := rw.rewriteDocument(ctx, root, mode)
	res.Calls = calls
	st.Set(telemetry.StageRewrite, time.Since(t0))
	if err != nil {
		return res, err
	}
	t0 = time.Now()
	cw := &countingWriter{w: w}
	err = xmlio.WriteTo(cw, out)
	res.BytesWritten = cw.n
	st.Set(telemetry.StageSerialize, time.Since(t0))
	return res, err
}

// countingWriter counts the bytes that reached the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// RewriteStream enforces the exchange schema on a token stream — no tree is
// ever materialized. Unlike RewriteDocumentStream it cannot fall back (the
// stream is consumed as it goes): unsupported configurations return
// ErrStreamUnsupported before any token is read, and documents that turn
// out to need the tree path (function nodes in wildcard territory) fail
// mid-stream with the same error.
func (rw *Rewriter) RewriteStream(ctx context.Context, src xmlio.TokenSource, w io.Writer, mode Mode) (*StreamResult, error) {
	if ok, reason := rw.CanStream(mode); !ok {
		rw.Instruments.countStreamFallback(reason)
		return &StreamResult{FallbackReason: reason}, fmt.Errorf("%w: %s", ErrStreamUnsupported, reason)
	}
	return rw.runStream(ctx, src, w)
}

// runStream is the instrumented entry, mirroring RewriteForestContext:
// rewrite ID, stamped event sink, span, latency and stream metrics.
func (rw *Rewriter) runStream(ctx context.Context, src xmlio.TokenSource, w io.Writer) (*StreamResult, error) {
	if rw.Invoker == nil {
		return nil, fmt.Errorf("core: Rewriter has no Invoker; use CheckForest for static analysis")
	}
	id := telemetry.TraceIDFrom(ctx)
	if id == "" {
		id = telemetry.NewID()
		ctx = telemetry.WithTraceID(ctx, id)
	}
	ins := rw.Instruments
	sink := &stampSink{inner: rw.Audit, extra: rw.Events, ins: ins, id: id}
	if ins == nil {
		return rw.streamBody(ctx, src, w, sink, time.Now())
	}
	ctx = telemetry.WithRegistry(ctx, ins.Registry())
	ctx, span := telemetry.StartSpan(ctx, "rewrite.stream")
	span.SetAttr("rewrite_id", id)
	span.SetAttr("k", strconv.Itoa(rw.K))
	start := time.Now()
	res, err := rw.streamBody(ctx, src, w, sink, start)
	ins.observeRewrite(Safe, time.Since(start), err, id)
	if res != nil {
		ins.observeStream(res.PeakBufferedBytes, res.PeakBufferedNodes, res.FirstByte, err)
	}
	span.End(err)
	return res, err
}

// streamBody drives the event loop. Decisions and invocations run on a
// sequential executor sharing one execState, so verdicts, memos, the call
// budget and instrument counters behave exactly as on the sequential tree
// engine; with Parallelism > 1 a speculation pool overlaps the wall-clock
// work of surely-invoked calls with parsing without touching any ordering.
func (rw *Rewriter) streamBody(ctx context.Context, src xmlio.TokenSource, w io.Writer, sink EventSink, start time.Time) (*StreamResult, error) {
	res := &StreamResult{Streamed: true}
	srw := *rw
	srw.Parallelism = 0
	var spec *specPool
	if rw.Parallelism > 1 {
		spec = newSpecPool(WithEventSink(ctx, sink), rw.Invoker, rw.Parallelism)
		srw.Invoker = &specInvoker{pool: spec}
		defer spec.close()
	}
	ex := &executor{rw: &srw, ctx: WithEventSink(ctx, sink), mode: Safe,
		st: &execState{paramsDone: map[*doc.Node]bool{}, permafrost: map[*doc.Node]bool{}}}
	em := xmlio.NewEmitter(w)

	var g *streamEngine
	bundle, err := func() ([]CallRecord, error) {
		for {
			ev, err := src.Next()
			if err != nil {
				return nil, err
			}
			if g == nil {
				// First event: establish the document word type, as
				// documentType does on the tree path.
				label := rw.Compiled.Target.Root
				if label == "" {
					if ev.Kind != xmlio.EventStart {
						return nil, &NotSafeError{Msg: "document root is a function node and the target schema declares no root label"}
					}
					label = ev.Label
				}
				if rw.Compiled.Target.Labels[label] == nil {
					return nil, &NotSafeError{Msg: fmt.Sprintf("root label %q is not declared by the target schema", label)}
				}
				typ := regex.Sym(rw.Compiled.Table.Intern(label))
				g = &streamEngine{rw: &srw, ex: ex, em: em, c: rw.Compiled,
					d: rw.Compiled.Deriver(), spec: spec, phase1: &Audit{},
					labels: map[string]labelInfo{}, derivs: map[derivKey]*regex.Regex{},
					frames: []*sFrame{{virtual: true, content: typ, resid: typ}}}
			}
			switch ev.Kind {
			case xmlio.EventStart:
				if err := g.start(ev.Label); err != nil {
					return nil, err
				}
			case xmlio.EventText:
				if err := g.text(ev.Text); err != nil {
					return nil, err
				}
			case xmlio.EventFunc:
				if err := g.fun(ev.Node); err != nil {
					return nil, err
				}
			case xmlio.EventEnd:
				if err := g.end(); err != nil {
					return nil, err
				}
			case xmlio.EventEOF:
				return g.finish()
			}
		}
	}()
	if g != nil {
		res.PeakBufferedBytes = g.peakBytes
		res.PeakBufferedNodes = g.peakNodes
	}
	if err != nil {
		em.Abort()
		res.BytesWritten = em.BytesWritten()
		return res, err
	}
	if err := em.End(); err != nil {
		return res, err
	}
	// The audit trail becomes visible only now, in tree-engine order:
	// phase-1 parameter materializations first, then the document bundle.
	for _, r := range g.phase1.Calls() {
		rw.Audit.Record(r)
	}
	for _, r := range bundle {
		rw.Audit.Record(r)
	}
	res.BytesWritten = em.BytesWritten()
	if t, ok := em.FirstByteAt(); ok {
		res.FirstByte = t.Sub(start)
	}
	res.Calls = g.phase1.Len() + len(bundle)
	return res, nil
}

// sFrame is the engine's per-open-element state.
type sFrame struct {
	label string
	path  *pathSeg // &seg, or nil for the virtual frame
	seg   pathSeg
	// Exactly one of these classifications applies: virtual (the synthetic
	// forest-level frame), wild (target-undeclared: verbatim passthrough),
	// isData (atomic content: text streams through, anything else is
	// buffered and collapsed at close), or structured (resid tracks the
	// residual content model).
	virtual bool
	wild    bool
	isData  bool
	content *regex.Regex
	resid   *regex.Regex
	// childIdx counts direct children in arrival order — the same indices
	// the tree engine's recursion uses in error paths. preCount snapshots
	// it when the island begins (island positions shift under splices;
	// prefix positions do not).
	childIdx int
	preCount int
	// island buffers the unresolved suffix of the child word; islandOn
	// flips at the first function child (in a data frame, at the first
	// child that is not text).
	islandOn bool
	island   []*doc.Node
	// records accumulates the audit bundles of closed streamed children,
	// in document order.
	records []CallRecord
	// bufBytes/bufNodes account this frame's share of the buffered frontier.
	bufBytes int
	bufNodes int
}

// streamEngine is the event-loop state: the frame stack, the island
// subtree build stack, the phase-1 audit buffer and frontier accounting.
type streamEngine struct {
	rw     *Rewriter
	ex     *executor
	em     *xmlio.Emitter
	c      *Compiled
	d      *regex.Deriver
	spec   *specPool
	frames []*sFrame
	// free holds the frames of closed elements for reuse: nothing refers
	// to a frame, or to the path segment it embeds, once its element has
	// closed — paths below it reach errors only as rendered strings.
	free []*sFrame
	// labels and derivs memoize, per rewrite, the symbol table, content
	// model and derivative lookups every element start needs: a document
	// repeats a handful of labels and residuals thousands of times, and
	// the shared structures answer each lookup under a lock.
	labels map[string]labelInfo
	derivs map[derivKey]*regex.Regex
	// bstack tracks elements under construction inside the current island:
	// events below an island build real subtrees for the executor.
	bstack []*doc.Node
	phase1 *Audit

	curBytes, peakBytes int
	curNodes, peakNodes int
}

func (g *streamEngine) cur() *sFrame { return g.frames[len(g.frames)-1] }

// labelInfo is what an element start needs to know about its label.
type labelInfo struct {
	sym              regex.Symbol
	content          *regex.Regex
	isData, declared bool
}

func (g *streamEngine) label(name string) labelInfo {
	li, ok := g.labels[name]
	if !ok {
		li.sym = g.c.Table.Intern(name)
		li.content, li.isData, li.declared = g.c.ContentModel(name)
		g.labels[name] = li
	}
	return li
}

type derivKey struct {
	r   *regex.Regex
	sym regex.Symbol
}

// derive is g.d.Derive through the rewrite's own memo.
func (g *streamEngine) derive(r *regex.Regex, sym regex.Symbol) *regex.Regex {
	k := derivKey{r, sym}
	d, ok := g.derivs[k]
	if !ok {
		d = g.d.Derive(r, sym)
		g.derivs[k] = d
	}
	return d
}

// frame returns a zeroed frame for an element that just opened.
func (g *streamEngine) frame() *sFrame {
	n := len(g.free)
	if n == 0 {
		return &sFrame{}
	}
	fr := g.free[n-1]
	g.free = g.free[:n-1]
	*fr = sFrame{}
	return fr
}

// account charges a buffered subtree to fr and updates the peak frontier.
func (g *streamEngine) account(fr *sFrame, n *doc.Node) {
	b, c := n.Size(), n.Count()
	fr.bufBytes += b
	fr.bufNodes += c
	g.curBytes += b
	g.curNodes += c
	if g.curBytes > g.peakBytes {
		g.peakBytes = g.curBytes
	}
	if g.curNodes > g.peakNodes {
		g.peakNodes = g.curNodes
	}
}

// releaseBuf returns fr's buffered share to the frontier accounting.
func (g *streamEngine) releaseBuf(fr *sFrame) {
	g.curBytes -= fr.bufBytes
	g.curNodes -= fr.bufNodes
	fr.bufBytes, fr.bufNodes = 0, 0
}

// addIsland appends a direct child to the current frame's island, starting
// the island if needed.
func (g *streamEngine) addIsland(n *doc.Node) {
	fr := g.cur()
	if !fr.islandOn {
		fr.islandOn = true
		fr.preCount = fr.childIdx
	}
	fr.island = append(fr.island, n)
	fr.childIdx++
	g.account(fr, n)
}

// start handles an element-open event.
func (g *streamEngine) start(label string) error {
	if len(g.bstack) > 0 {
		n := doc.Elem(label)
		top := g.bstack[len(g.bstack)-1]
		top.Children = append(top.Children, n)
		g.account(g.cur(), n)
		g.bstack = append(g.bstack, n)
		return nil
	}
	fr := g.cur()
	if fr.islandOn || fr.isData {
		// An element in a data frame can only fail the collapse at close;
		// buffer it like an island child.
		n := doc.Elem(label)
		g.addIsland(n)
		g.bstack = append(g.bstack, n)
		return nil
	}
	if fr.wild {
		g.em.StartElement(label)
		child := g.frame()
		child.label, child.wild = label, true
		g.frames = append(g.frames, child)
		return nil
	}
	// Structured (or virtual) frame: the child's symbol extends the
	// function-free prefix, so step the residual. A dead residual means no
	// suffix can complete the word — the tree engine's static check would
	// refuse the document too.
	li := g.label(label)
	fr.resid = g.derive(fr.resid, li.sym)
	if fr.resid.IsNever() {
		return &NotSafeError{Path: pathString(fr.path), Msg: fmt.Sprintf(
			"child %q cannot extend any word matching %s", label, fr.content.String(g.c.Table))}
	}
	idx := fr.childIdx
	fr.childIdx++
	child := g.frame()
	child.label, child.content, child.resid, child.isData, child.wild = label, li.content, li.content, li.isData, !li.declared
	child.seg = pathSeg{parent: fr.path, label: label, index: idx}
	child.path = &child.seg
	if child.wild && g.rw.ctx.Strict {
		return &NotSafeError{Path: pathString(child.path), Msg: fmt.Sprintf(
			"element %q is not declared by the target schema", label)}
	}
	g.em.StartElement(label)
	g.frames = append(g.frames, child)
	return nil
}

// text handles a character-data event.
func (g *streamEngine) text(v string) error {
	if len(g.bstack) > 0 {
		n := doc.TextNode(v)
		top := g.bstack[len(g.bstack)-1]
		top.Children = append(top.Children, n)
		g.account(g.cur(), n)
		return nil
	}
	fr := g.cur()
	if fr.wild {
		g.em.Text(v)
		return nil
	}
	if fr.virtual {
		if strings.TrimSpace(v) != "" {
			return &NotSafeError{Msg: fmt.Sprintf("stray text %q at document level", v)}
		}
		return nil
	}
	if !fr.isData && strings.TrimSpace(v) != "" {
		return &NotSafeError{Path: pathString(fr.path), Msg: fmt.Sprintf(
			"element %q has structured content but contains text", fr.label)}
	}
	if fr.islandOn {
		g.addIsland(doc.TextNode(v))
		return nil
	}
	// Whitespace-only text in a structured element (the tree engine keeps
	// the node), or the text of a data element before any child that needs
	// collapsing: it streams through, and still occupies a child index. The
	// emitter holds a lone text back until the element's form is decided,
	// so the bytes match the batch printer's.
	fr.childIdx++
	g.em.Text(v)
	return nil
}

// fun handles a complete function subtree.
func (g *streamEngine) fun(n *doc.Node) error {
	if len(g.bstack) == 0 && g.cur().wild {
		return fmt.Errorf("%w: function node under wildcard element %q", ErrStreamUnsupported, g.cur().label)
	}
	// A tree source hands out the caller's own function nodes, and
	// materialization rewrites a function's parameters in place: work on
	// a clone, parameters included.
	n = n.Clone()
	// Phase 1 at arrival: sources deliver function subtrees at close-tag
	// time, which is doc.FuncsBottomUp order over the whole document —
	// records land in the phase-1 buffer in tree-engine order. Nested
	// functions inside n's parameters are handled by the recursive
	// materialization, again exactly as the tree engine does.
	g.ex.audit = g.phase1
	if err := g.ex.materializeParams(n, nil); err != nil {
		return err
	}
	if len(g.bstack) > 0 {
		top := g.bstack[len(g.bstack)-1]
		top.Children = append(top.Children, n)
		g.account(g.cur(), n)
		return nil
	}
	fr := g.cur()
	g.addIsland(n)
	// Overlap invocation with parsing: under a streamable target a keep
	// can never pass the word check, so a callable direct occurrence is
	// surely invoked — dispatch it now and let the decision loop claim
	// the result. Data-frame functions go through collapseToData with its
	// own invocability rules; leave those synchronous.
	if g.spec != nil && !fr.isData && g.ex.callable(&item{node: n}) {
		g.spec.dispatch(n)
	}
	return nil
}

// end handles an element-close event.
func (g *streamEngine) end() error {
	if len(g.bstack) > 0 {
		g.bstack = g.bstack[:len(g.bstack)-1]
		return nil
	}
	fr := g.cur()
	g.frames = g.frames[:len(g.frames)-1]
	defer func() { g.free = append(g.free, fr) }()
	parent := g.frames[len(g.frames)-1]
	switch {
	case fr.wild:
		// Wildcard territory: the tree engine leaves the subtree untouched.
		g.em.EndElement()
		return nil
	case fr.isData && !fr.islandOn:
		// Text only, and already handed to the emitter.
		g.em.EndElement()
		return nil
	case fr.isData:
		own := &Audit{}
		g.ex.audit = own
		kids, err := g.ex.collapseToData(fr.island, fr.path)
		if err != nil {
			return err
		}
		g.em.Finish(kids)
		g.releaseBuf(fr)
		parent.records = append(parent.records, own.Calls()...)
		return nil
	case fr.islandOn:
		out, bundle, err := g.resolveIsland(fr)
		if err != nil {
			return err
		}
		g.em.Finish(out)
		parent.records = append(parent.records, bundle...)
		return nil
	default:
		// Function-free word: acceptance is exactly nullability of the
		// residual.
		if !fr.resid.Nullable() {
			return &NotSafeError{Path: pathString(fr.path), Msg: fmt.Sprintf(
				"children of %q form an incomplete word for %s", fr.label, fr.content.String(g.c.Table))}
		}
		g.em.EndElement()
		parent.records = append(parent.records, fr.records...)
		return nil
	}
}

// resolveIsland runs the real decision machinery on the buffered suffix
// against the frame's residual target: a static word pre-check (mirroring
// staticCheck.element), the executor's rewriteWord, then element recursion
// over the survivors. It returns the rewritten suffix and the frame's
// complete audit bundle — own word records, then the streamed prefix
// children's bundles, then the island recursion's records, which is the
// tree engine's bundle order for this element.
func (g *streamEngine) resolveIsland(fr *sFrame) ([]*doc.Node, []CallRecord, error) {
	ex := g.ex
	toks := make([]Token, 0, len(fr.island))
	for _, n := range fr.island {
		if n.Kind == doc.Text {
			continue
		}
		tok := Token{Sym: g.c.Table.Intern(n.Label), Node: n}
		if n.Kind == doc.Func && !ex.callable(&item{node: n}) {
			tok.Frozen = true
		}
		toks = append(toks, tok)
	}
	ok, err := g.rw.wordOK(toks, fr.resid, Safe)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, &NotSafeError{Path: pathString(fr.path), Msg: fmt.Sprintf(
			"children %s do not Safe-rewrite into %s within depth %d",
			forestLabels(fr.island), fr.resid.String(g.c.Table), g.rw.K)}
	}
	own := &Audit{}
	ex.audit = own
	out, _, err := ex.rewriteWord(fr.island, fr.resid, fr.path, false)
	if err != nil {
		return nil, nil, err
	}
	rec := &Audit{}
	ex.audit = rec
	for j, n := range out {
		switch n.Kind {
		case doc.Func:
			// Unreachable under the streamability gate; refuse rather than
			// emit bytes the batch printer would have namespaced.
			return nil, nil, fmt.Errorf("core: internal: function %q survived a streaming rewrite", n.Label)
		case doc.Element:
			if err := ex.element(n, &pathSeg{parent: fr.path, label: n.Label, index: fr.preCount + j}, false); err != nil {
				return nil, nil, err
			}
		}
	}
	bundle := make([]CallRecord, 0, own.Len()+len(fr.records)+rec.Len())
	bundle = append(bundle, own.Calls()...)
	bundle = append(bundle, fr.records...)
	bundle = append(bundle, rec.Calls()...)
	g.releaseBuf(fr)
	return out, bundle, nil
}

// finish closes the virtual forest frame at end of document and returns the
// document bundle.
func (g *streamEngine) finish() ([]CallRecord, error) {
	fr := g.frames[0]
	if fr.islandOn {
		out, bundle, err := g.resolveIsland(fr)
		if err != nil {
			return nil, err
		}
		for _, n := range out {
			g.em.Tree(n)
		}
		return bundle, nil
	}
	if !fr.resid.Nullable() {
		return nil, &NotSafeError{Msg: fmt.Sprintf(
			"document word is incomplete for %s", fr.content.String(g.c.Table))}
	}
	return fr.records, nil
}

// ---------------------------------------------------------------------------
// Speculative invocation: overlap service calls with parsing.

// specPool runs surely-invoked calls ahead of their decision point. The
// decision loop still performs every invocation through the executor —
// validation, converters, the call budget and the audit record all happen
// at claim time in document order — only the wall-clock wait overlaps
// parsing. Unclaimed in-flight calls are cancelled when the rewrite ends.
type specPool struct {
	inner  Invoker
	ctx    context.Context
	cancel context.CancelFunc
	sem    chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	pending map[*doc.Node]*specCall
}

type specCall struct {
	done chan struct{}
	res  []*doc.Node
	err  error
}

func newSpecPool(ctx context.Context, inner Invoker, degree int) *specPool {
	ctx, cancel := context.WithCancel(ctx)
	return &specPool{inner: inner, ctx: ctx, cancel: cancel,
		sem: make(chan struct{}, degree), pending: map[*doc.Node]*specCall{}}
}

// dispatch starts call speculatively when a worker slot is free; otherwise
// the call simply happens synchronously at decision time.
func (p *specPool) dispatch(call *doc.Node) {
	select {
	case p.sem <- struct{}{}:
	default:
		return
	}
	sc := &specCall{done: make(chan struct{})}
	p.mu.Lock()
	p.pending[call] = sc
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		sc.res, sc.err = p.inner.Invoke(p.ctx, call)
		close(sc.done)
		<-p.sem
	}()
}

func (p *specPool) claim(call *doc.Node) *specCall {
	p.mu.Lock()
	sc := p.pending[call]
	if sc != nil {
		delete(p.pending, call)
	}
	p.mu.Unlock()
	return sc
}

// close cancels unclaimed in-flight calls and waits for the workers.
func (p *specPool) close() {
	p.cancel()
	p.wg.Wait()
}

// specInvoker resolves claims against the pool before falling back to the
// wrapped invoker. The executor calls it synchronously from the decision
// loop, so audit order is untouched.
type specInvoker struct {
	pool *specPool
}

func (s *specInvoker) Invoke(ctx context.Context, call *doc.Node) ([]*doc.Node, error) {
	if sc := s.pool.claim(call); sc != nil {
		select {
		case <-sc.done:
			return sc.res, sc.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.pool.inner.Invoke(ctx, call)
}
