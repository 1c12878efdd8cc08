package core

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"axml/internal/doc"
	"axml/internal/regex"
	"axml/internal/telemetry"
)

// RewriteDocument rewrites the document into the target schema and returns
// the rewritten root. The input is never modified: the result shares every
// function-free subtree with it and copies only the elements above the
// function nodes the rewriting touches, so a stored tree can be passed as is
// (see plan.own). The returned document is an instance of the target schema,
// or an error explains why the rewriting was refused (safe mode) or failed
// (possible mode, with any side-effecting calls already recorded in the
// Audit).
//
// RewriteDocument is the documented context-free wrapper over
// RewriteDocumentContext, running under context.Background().
func (rw *Rewriter) RewriteDocument(root *doc.Node, mode Mode) (*doc.Node, error) {
	return rw.RewriteDocumentContext(context.Background(), root, mode)
}

// RewriteDocumentContext is RewriteDocument under a context: cancellation or
// deadline expiry aborts the rewriting between (and, for context-aware
// invokers, during) service calls, returning the context's error. Calls
// already performed remain recorded in the Audit.
func (rw *Rewriter) RewriteDocumentContext(ctx context.Context, root *doc.Node, mode Mode) (*doc.Node, error) {
	out, _, err := rw.rewriteDocument(ctx, root, mode)
	return out, err
}

// rewriteDocument is RewriteDocumentContext that also reports how many
// calls the rewriting recorded in the Audit, failed rewritings included.
func (rw *Rewriter) rewriteDocument(ctx context.Context, root *doc.Node, mode Mode) (*doc.Node, int, error) {
	typ, err := rw.documentType(root)
	if err != nil {
		return nil, 0, err
	}
	out, calls, err := rw.rewriteForestContext(ctx, []*doc.Node{root}, typ, mode)
	if err != nil {
		return nil, calls, err
	}
	if len(out) != 1 {
		return nil, calls, &NotSafeError{Msg: fmt.Sprintf("document rewriting produced %d roots", len(out))}
	}
	return out[0], calls, nil
}

// RewriteForest rewrites a forest into the given word type — the operation
// the Schema Enforcement module applies to service parameters (typ = τ_in)
// and results (typ = τ_out). The input forest is never modified; the returned
// slice is the new top level, sharing the input's function-free subtrees.
// Context-free wrapper over RewriteForestContext.
func (rw *Rewriter) RewriteForest(forest []*doc.Node, typ *regex.Regex, mode Mode) ([]*doc.Node, error) {
	return rw.RewriteForestContext(context.Background(), forest, typ, mode)
}

// RewriteForestContext is RewriteForest under a context (see
// RewriteDocumentContext for the cancellation contract). With
// Rewriter.Parallelism above 1 the rewriting runs on the parallel
// materialization engine (see parallel.go); at 1 it takes the sequential
// code paths unchanged.
func (rw *Rewriter) RewriteForestContext(ctx context.Context, forest []*doc.Node, typ *regex.Regex, mode Mode) ([]*doc.Node, error) {
	out, _, err := rw.rewriteForestContext(ctx, forest, typ, mode)
	return out, err
}

// rewriteForestContext is RewriteForestContext plus the audited call count.
func (rw *Rewriter) rewriteForestContext(ctx context.Context, forest []*doc.Node, typ *regex.Regex, mode Mode) ([]*doc.Node, int, error) {
	if rw.Invoker == nil {
		return nil, 0, fmt.Errorf("core: Rewriter has no Invoker; use CheckForest for static analysis")
	}
	// Every top-level rewriting carries an ID — generated here unless the
	// caller pinned one with telemetry.WithTraceID — stamped on call records,
	// policy events and spans so a slow trace matches its audit trail.
	id := telemetry.TraceIDFrom(ctx)
	if id == "" {
		id = telemetry.NewID()
		ctx = telemetry.WithTraceID(ctx, id)
	}
	ins := rw.Instruments
	sink := &stampSink{inner: rw.Audit, extra: rw.Events, ins: ins, id: id}
	if ins == nil {
		return rw.rewriteForest(ctx, forest, typ, mode, sink)
	}
	ctx = telemetry.WithRegistry(ctx, ins.Registry())
	ctx, span := telemetry.StartSpan(ctx, rewriteSpanName(mode))
	span.SetAttr("rewrite_id", id)
	span.SetAttr("k", strconv.Itoa(rw.K))
	start := time.Now()
	out, calls, err := rw.rewriteForest(ctx, forest, typ, mode, sink)
	ins.observeRewrite(mode, time.Since(start), err, id)
	span.End(err)
	return out, calls, err
}

// rewriteForest is the uninstrumented body of RewriteForestContext; sink is
// the (stamping) event sink the whole rewriting reports into. It also
// returns the number of calls the rewriting audited.
func (rw *Rewriter) rewriteForest(ctx context.Context, forest []*doc.Node, typ *regex.Regex, mode Mode, sink EventSink) ([]*doc.Node, int, error) {
	ex := &executor{rw: rw, ctx: WithEventSink(ctx, sink), mode: mode, audit: rw.Audit,
		st: &execState{
			paramsDone: map[*doc.Node]bool{},
			permafrost: map[*doc.Node]bool{},
			sched:      newParScheduler(rw.Parallelism),
		}}
	p := newPlan()
	if mode == Mixed {
		// The speculative pass splices results before any plan exists, so
		// it works on a private clone of the forest.
		forest = doc.CloneForest(forest)
		var err error
		if ex.st.sched != nil {
			forest, err = ex.preInvokeBatch(forest, 0, nil)
		} else {
			forest, err = ex.preInvoke(forest, 0, nil)
		}
		if err != nil {
			return nil, ex.auditedCount(), err
		}
		p.index(forest)
		ex.mode = Safe
	} else {
		forest = p.own(forest)
	}
	// Safe and mixed mode refuse before the first call: safety is decided
	// statically. Possible mode refuses a hopeless request with zero side
	// effects; failures after this point stem from unlucky actual returns.
	if err := rw.checkPlanned(forest, p, typ, ex.mode); err != nil {
		return nil, ex.auditedCount(), err
	}
	ex.st.plan = p
	out, err := ex.forest(forest, p.funcs, typ, nil, true)
	return out, ex.auditedCount(), err
}

// execState is the rewriting state shared by every branch of one execution,
// including all parallel branches: the static check's plan, the
// parameter/permafrost memos, the call budget and the worker scheduler. A
// nil sched selects the sequential code paths throughout.
type execState struct {
	// plan is read-only once execution starts; nil when nothing was
	// checked up front (the streaming engine).
	plan *plan

	mu sync.Mutex
	// paramsDone marks function nodes whose parameters have been
	// materialized into input instances (or arrived conformant from an
	// invocation result).
	paramsDone map[*doc.Node]bool
	// permafrost marks functions that can never be invoked: undeclared,
	// non-invocable, or parameters beyond repair in lenient mode.
	permafrost map[*doc.Node]bool
	calls      int
	// audited counts the call records written so far; parallel branches
	// buffer theirs, but every buffer reaches the Rewriter's Audit.
	audited int
	sched   *parScheduler
}

// executor is one branch's view of a rewriting: the shared state plus the
// branch's context (carrying its event sink) and call-record sink. The
// top-level executor records into the Rewriter's audit; parallel branches
// record into per-slot buffers that runSlots flushes in document order.
type executor struct {
	rw *Rewriter
	// ctx governs the whole rewriting and carries the branch's event sink;
	// it is passed to every Invoker.Invoke.
	ctx   context.Context
	mode  Mode
	audit *Audit
	st    *execState
}

func (ex *executor) paramsReady(n *doc.Node) bool {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	return ex.st.paramsDone[n]
}

func (ex *executor) markParamsDone(n *doc.Node) {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	ex.st.paramsDone[n] = true
}

func (ex *executor) isFrozen(n *doc.Node) bool {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	return ex.st.permafrost[n]
}

func (ex *executor) freeze(n *doc.Node) {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	ex.st.permafrost[n] = true
}

// reserveCall claims one unit of the invocation budget.
func (ex *executor) reserveCall() error {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	if ex.st.calls >= ex.rw.MaxCalls {
		return fmt.Errorf("core: invocation budget of %d calls exhausted (recursive service?)", ex.rw.MaxCalls)
	}
	ex.st.calls++
	return nil
}

func (ex *executor) callCount() int {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	return ex.st.calls
}

func (ex *executor) auditedCount() int {
	ex.st.mu.Lock()
	defer ex.st.mu.Unlock()
	return ex.st.audited
}

// forest runs the three phases on one forest against a word type and
// returns the rewritten top level. funcs lists the function nodes whose
// parameters phase 1 materializes, bottom-up; planned reports that the
// static check validated the forest, so that its function-free subtrees are
// final as they stand.
func (ex *executor) forest(forest, funcs []*doc.Node, typ *regex.Regex, path *pathSeg, planned bool) ([]*doc.Node, error) {
	// Phase 1: parameters, deepest functions first.
	for _, f := range funcs {
		if err := ex.materializeParams(f, path); err != nil {
			return nil, err
		}
	}
	// Phase 3 at this level: rewrite the word of root labels.
	out, slots, err := ex.rewriteWord(forest, typ, path, planned)
	if err != nil {
		return nil, err
	}
	// Phase 2: recurse into element subtrees — independent of one another,
	// so they fan out onto the scheduler when one is configured.
	if err := ex.runSlots(len(slots), func(child *executor, k int) error {
		s := slots[k]
		tree := out[s.i]
		return child.element(tree, &pathSeg{parent: path, label: tree.Label, index: s.i}, s.planned)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// materializeParams rewrites f's parameters into its input type, memoized.
// Failures freeze f in lenient mode and abort in strict mode.
func (ex *executor) materializeParams(f *doc.Node, path *pathSeg) error {
	if ex.paramsReady(f) || ex.isFrozen(f) {
		return nil
	}
	c := ex.rw.Compiled
	fail := func(err error) error {
		if ex.rw.StrictParams {
			return err
		}
		ex.freeze(f)
		return nil
	}
	in, isData, exists := c.InputType(c.Table.Intern(f.Label))
	if !exists {
		return fail(&NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("function %q is not declared by either schema", f.Label)})
	}
	seg := &pathSeg{parent: path, label: f.Label, index: paramSeg}
	if isData {
		kids, err := ex.collapseToData(f.Children, seg)
		if err != nil {
			return fail(err)
		}
		f.Children = kids
		ex.markParamsDone(f)
		return nil
	}
	// A proved parameter forest needs no phase 1 of its own: its function
	// nodes precede f in the plan's bottom-up order, so they are settled
	// (materialized or frozen) before f is reached.
	planned := ex.st.plan.proved(f)
	var funcs []*doc.Node
	if !planned {
		funcs = funcsBottomUp(f.Children)
	}
	kids, err := ex.forest(f.Children, funcs, in, seg, planned)
	if err != nil {
		return fail(err)
	}
	f.Children = kids
	ex.markParamsDone(f)
	return nil
}

// collapseToData materializes a forest into pure text: data-returning
// invocable functions are called, anything else non-text is an error.
func (ex *executor) collapseToData(children []*doc.Node, path *pathSeg) ([]*doc.Node, error) {
	c := ex.rw.Compiled
	out := make([]*doc.Node, 0, len(children))
	for _, ch := range children {
		switch ch.Kind {
		case doc.Text:
			out = append(out, ch)
		case doc.Func:
			fi := c.Func(c.Table.Intern(ch.Label))
			if fi == nil || !fi.Invocable || fi.Out != nil || ex.rw.K < 1 {
				return nil, &NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("cannot collapse %q to atomic data", ch.Label)}
			}
			if err := ex.materializeParams(ch, path); err != nil {
				return nil, err
			}
			if ex.isFrozen(ch) {
				return nil, &NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("parameters of %q cannot be fixed", ch.Label)}
			}
			res, err := ex.invoke(ch, 1)
			if err != nil {
				return nil, err
			}
			out = append(out, res...)
		default:
			return nil, &NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("element %q where atomic data is required", ch.Label)}
		}
	}
	return out, nil
}

// element rewrites one element node in place; the executor owns every node
// it reaches here (a spine copy, a function's cloned parameters, or an
// invocation result). planned reports that the static check validated e's
// subtree: its text content and its function-free children are then final.
func (ex *executor) element(e *doc.Node, path *pathSeg, planned bool) error {
	c := ex.rw.Compiled
	content, isData, declared := c.ContentModel(e.Label)
	if !declared {
		if ex.rw.ctx.Strict {
			return &NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("element %q is not declared by the target schema", e.Label)}
		}
		return nil
	}
	if isData {
		kids, err := ex.collapseToData(e.Children, path)
		if err != nil {
			return err
		}
		e.Children = kids
		return nil
	}
	if !planned {
		for _, ch := range e.Children {
			if ch.Kind == doc.Text && strings.TrimSpace(ch.Value) != "" {
				return &NotSafeError{Path: pathString(path), Msg: fmt.Sprintf("element %q has structured content but contains text", e.Label)}
			}
		}
	}
	kids, slots, err := ex.rewriteWord(e.Children, content, path, planned)
	if err != nil {
		return err
	}
	e.Children = kids
	return ex.runSlots(len(slots), func(child *executor, k int) error {
		s := slots[k]
		ch := kids[s.i]
		return child.element(ch, &pathSeg{parent: path, label: ch.Label, index: s.i}, s.planned)
	})
}

// slot is one element position of a rewritten word that the subtree phase
// visits; planned marks an element that came from the checked forest.
type slot struct {
	i       int
	planned bool
}

// item is one child slot during word rewriting.
type item struct {
	node    *doc.Node
	depth   int
	kept    bool // decided keep (tentative in possible mode)
	forced  bool // backtracking flipped this occurrence to "must call"
	pending bool // decided invoke, dispatch deferred to the round's batch
}

// rewriteWord performs the per-node decision loop: scan left to right, for
// each invocable function occurrence test whether keeping it preserves the
// verdict; keep if so, invoke otherwise. In possible mode a final mismatch
// backtracks over keeps made after the last call (left-to-right rewritings
// never revisit positions left of an invocation).
//
// Safe mode on the parallel engine pipelines within the word: verdicts are
// fixed by the same left-to-right scan, but the decided invocations dispatch
// as one concurrent batch per round (decideParallel). Possible mode always
// runs the sequential loop — backtracking revisits earlier decisions, which
// a concurrent batch could not honor.
//
// Besides the rewritten word it returns the element slots the subtree phase
// must visit (see executor.slots); planned reports that children is a word
// the static check validated.
func (ex *executor) rewriteWord(children []*doc.Node, typ *regex.Regex, path *pathSeg, planned bool) ([]*doc.Node, []slot, error) {
	if planned && !slices.ContainsFunc(children, isFunc) {
		// The static check matched this function-free word already:
		// nothing to decide, invoke or match again.
		return children, ex.slots(children, func(int) bool { return true }), nil
	}
	w := &wordRun{ex: ex, typ: typ, tokScratch: make([]Token, 0, len(children))}
	w.items = make([]*item, len(children))
	backing := make([]item, len(children)) // one allocation for the whole word
	for i, ch := range children {
		backing[i].node = ch
		w.items[i] = &backing[i]
	}
	if ex.st.sched != nil && ex.mode == Safe {
		if err := w.decideParallel(); err != nil {
			return nil, nil, err
		}
	} else if err := w.decideFrom(0); err != nil {
		return nil, nil, err
	}
	// Final verification, with possible-mode backtracking over keeps made
	// after the last invocation (left-to-right rewritings never revisit
	// positions left of a performed call).
	for {
		nodes := make([]*doc.Node, len(w.items))
		for i, it := range w.items {
			nodes[i] = it.node
		}
		if ex.rw.ctx.MatchWord(typ, nodes) {
			// Items at depth 0 are the word's own children, checked when
			// planned; deeper items arrived in invocation results, which
			// no check has seen.
			return nodes, ex.slots(nodes, func(i int) bool { return planned && w.items[i].depth == 0 }), nil
		}
		if ex.mode != Possible || len(w.kept) == 0 {
			return nil, nil, &NotSafeError{
				Path: pathString(path),
				Msg: fmt.Sprintf("rewriting finished on %v which does not match %s (mode %s, %d calls made)",
					forestLabels(nodes), typ.String(ex.rw.Compiled.Table), ex.mode, ex.callCount()),
			}
		}
		// Flip the most recent keep to a forced call and resume there.
		ex.rw.Instruments.countBacktrack()
		flip := w.kept[len(w.kept)-1]
		w.kept = w.kept[:len(w.kept)-1]
		flip.kept = false
		flip.forced = true
		pos := 0
		for i, it := range w.items {
			if it == flip {
				pos = i
				break
			}
		}
		if err := w.decideFrom(pos); err != nil {
			return nil, nil, err
		}
	}
}

// slots lists, in order, the element positions of a rewritten word that
// the subtree phase visits: every element, except one the static check
// proved function-free. checked reports whether position i holds a node of
// the checked forest.
func (ex *executor) slots(nodes []*doc.Node, checked func(i int) bool) []slot {
	var out []slot
	for i, n := range nodes {
		if n.Kind != doc.Element {
			continue
		}
		c := checked(i)
		if c && !ex.st.plan.onSpine(n) {
			continue
		}
		out = append(out, slot{i: i, planned: c})
	}
	return out
}

func isFunc(n *doc.Node) bool { return n.Kind == doc.Func }

// wordRun carries the mutable state of one word-rewriting pass.
type wordRun struct {
	ex    *executor
	typ   *regex.Regex
	items []*item
	kept  []*item // keeps decided since the last invocation
	// tokScratch backs tokens(): each verdict consumes its slice before the
	// next decision rebuilds it, and a word run never queries concurrently.
	tokScratch []Token
}

// decideFrom runs the left-to-right decision loop starting at index j: for
// every invocable occurrence, tentatively keep it and test the verdict;
// invoke it when keeping breaks the verdict (or when backtracking forced it).
func (w *wordRun) decideFrom(j int) error {
	ex := w.ex
	for j < len(w.items) {
		it := w.items[j]
		if !ex.callable(it) {
			j++
			continue
		}
		if !it.forced {
			it.kept = true
			ok, err := ex.rw.wordOK(w.tokens(), w.typ, ex.mode)
			if err != nil {
				return err
			}
			if ok {
				w.kept = append(w.kept, it)
				ex.rw.Instruments.countKeep()
				j++
				continue
			}
			it.kept = false
		}
		ex.rw.Instruments.countInvoke()
		res, err := ex.invoke(it.node, it.depth+1)
		if err != nil {
			if ex.degradable(err) {
				// Possible mode treats an exhausted policy like an unlucky
				// answer: freeze the occurrence and let the final
				// verification backtrack over the remaining keeps instead of
				// aborting the whole rewrite.
				ex.freeze(it.node)
				it.forced = false
				Emit(ex.ctx, InvokeEvent{Func: it.node.Label, Endpoint: EndpointOf(it.node),
					Kind: EventDegraded, Err: err.Error()})
				j++
				continue
			}
			return err
		}
		spliced := make([]*item, 0, len(w.items)-1+len(res))
		spliced = append(spliced, w.items[:j]...)
		for _, n := range res {
			spliced = append(spliced, &item{node: n, depth: it.depth + 1})
			if n.Kind == doc.Func {
				// Output instances conform: parameters arrive materialized.
				ex.markParamsDone(n)
			}
		}
		spliced = append(spliced, w.items[j+1:]...)
		w.items = spliced
		w.kept = w.kept[:0] // nothing left of a call may flip
		// Do not advance: returned occurrences are processed in order.
	}
	return nil
}

// callable reports whether the item is a function occurrence the executor
// may still invoke.
func (ex *executor) callable(it *item) bool {
	if it.node.Kind != doc.Func || it.kept || it.depth >= ex.rw.K {
		return false
	}
	if ex.isFrozen(it.node) {
		return false
	}
	c := ex.rw.Compiled
	fi := c.Func(c.Table.Intern(it.node.Label))
	if fi == nil || !fi.Invocable {
		return false
	}
	return ex.paramsReady(it.node)
}

// tokens projects items to analysis tokens; kept and uncallable functions
// are frozen.
func (w *wordRun) tokens() []Token {
	ex := w.ex
	c := ex.rw.Compiled
	out := w.tokScratch[:0]
	for _, it := range w.items {
		if it.node.Kind == doc.Text {
			continue
		}
		tok := Token{Sym: c.Table.Intern(it.node.Label), Node: it.node, Depth: it.depth}
		if it.node.Kind == doc.Func && (it.kept || !ex.callable(it)) {
			tok.Frozen = true
		}
		out = append(out, tok)
	}
	w.tokScratch = out
	return out
}

// degradable reports whether an invocation failure should be degraded to a
// frozen occurrence plus backtracking (Possible mode, transient failure, and
// the rewriting itself not cancelled) rather than aborting the rewrite.
func (ex *executor) degradable(err error) bool {
	return ex.mode == Possible && ex.ctx.Err() == nil && IsTransientCall(err)
}

// invoke performs one service call with validation and auditing.
func (ex *executor) invoke(call *doc.Node, depth int) ([]*doc.Node, error) {
	if err := ex.ctx.Err(); err != nil {
		return nil, err
	}
	if err := ex.reserveCall(); err != nil {
		return nil, err
	}
	ins := ex.rw.Instruments
	ictx := ex.ctx
	var span *telemetry.Span
	var start time.Time
	var epi *endpointInstruments
	if ins != nil {
		epi = ins.endpoint(EndpointOf(call))
		ictx, span = telemetry.StartSpan(ex.ctx, epi.spanName)
		span.SetAttr("func", call.Label)
		start = time.Now()
	}
	res, err := ex.rw.Invoker.Invoke(ictx, call)
	if epi != nil {
		epi.seconds.ObserveExemplar(time.Since(start).Seconds(), span.TraceID())
		if err != nil {
			epi.errors.Inc()
		}
		span.End(err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: invoking %q: %w", call.Label, err)
	}
	if ex.rw.ValidateReturns {
		if err := ex.rw.ctx.IsOutputInstance(call.Label, res); err != nil {
			fixed, ok := ex.applyConverters(call, res)
			if !ok {
				return nil, fmt.Errorf("core: %q returned a non-conforming result: %w", call.Label, err)
			}
			res = fixed
		}
	}
	c := ex.rw.Compiled
	var cost float64
	if fi := c.Func(c.Table.Intern(call.Label)); fi != nil {
		cost = fi.Cost
	}
	ex.audit.Record(CallRecord{Func: call.Label, Depth: depth, Cost: cost,
		ResultNodes: len(res), Rewrite: telemetry.TraceIDFrom(ex.ctx)})
	ex.st.mu.Lock()
	ex.st.audited++
	ex.st.mu.Unlock()
	return res, nil
}

// preInvoke is the Mixed mode's speculative pass: invoke every outermost
// function the PreInvoke predicate admits (default: side-effect-free and
// zero cost), splice the actual results, and recurse into them while depth
// allows. The subsequent safe analysis then works on the concrete data.
// This is the sequential pass; the parallel engine batches the same
// admissible calls per round instead (preInvokeBatch in parallel.go).
func (ex *executor) preInvoke(forest []*doc.Node, depth int, path *pathSeg) ([]*doc.Node, error) {
	pred := ex.rw.PreInvoke
	if pred == nil {
		pred = func(fi *FuncInfo) bool { return !fi.SideEffects && fi.Cost == 0 }
	}
	c := ex.rw.Compiled
	out := make([]*doc.Node, 0, len(forest))
	for _, n := range forest {
		if n.Kind == doc.Element {
			kids, err := ex.preInvoke(n.Children, depth, &pathSeg{parent: path, label: n.Label, index: bareSeg})
			if err != nil {
				return nil, err
			}
			n.Children = kids
			out = append(out, n)
			continue
		}
		if n.Kind != doc.Func || depth >= ex.rw.K {
			out = append(out, n)
			continue
		}
		fi := c.Func(c.Table.Intern(n.Label))
		if fi == nil || !fi.Invocable || !pred(fi) {
			out = append(out, n)
			continue
		}
		for _, f := range doc.FuncsBottomUp(n) {
			if err := ex.materializeParams(f, path); err != nil {
				return nil, err
			}
		}
		if ex.isFrozen(n) {
			out = append(out, n)
			continue
		}
		res, err := ex.invoke(n, depth+1)
		if err != nil {
			if ex.ctx.Err() == nil && IsTransientCall(err) {
				// The speculative pass is best-effort: a flaky endpoint
				// leaves the call intensional and the safe analysis decides
				// whether the document still rewrites without it.
				ex.freeze(n)
				Emit(ex.ctx, InvokeEvent{Func: n.Label, Endpoint: EndpointOf(n),
					Kind: EventDegraded, Err: err.Error()})
				out = append(out, n)
				continue
			}
			return nil, err
		}
		for _, r := range res {
			if r.Kind == doc.Func {
				ex.markParamsDone(r)
			}
		}
		deeper, err := ex.preInvoke(res, depth+1, path)
		if err != nil {
			return nil, err
		}
		out = append(out, deeper...)
	}
	return out, nil
}
