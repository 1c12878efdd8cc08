package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"axml/internal/core"
	"axml/internal/experiments"
	"axml/internal/peer"
	"axml/internal/schema"
	"axml/internal/soap"
	"axml/internal/telemetry"
	"axml/internal/telemetry/obslog"
	"axml/internal/xmlio"
	"axml/internal/xsdint"
)

const (
	// clients is the number of closed-loop callers, one keep-alive
	// connection each. One: a request keeps the client, the front and (when
	// materializing) the service busy in turn, so on a two-core machine a
	// second caller would measure the scheduler's interleaving of them
	// rather than the exchange.
	clients = 1
)

// exchangeWorkload describes one of the two exchange workloads.
type exchangeWorkload struct {
	docs     int
	variants int // exchange schemas, drawn uniformly per request
	warmup   int // requests sent after the population is installed
	// materialize selects ~48 KiB documents whose calls point at a service
	// daemon, and the 256 materializing exchange schemas.
	materialize bool
}

// exchangeInputs are one seed's documents and exchange schemas.
type exchangeInputs struct {
	names   []string
	bodies  [][]byte
	calls   []int // service calls one exchange of the document makes
	schemas [][]byte
}

func runExchangeHot(e *env, rep *report) error {
	return runExchange(e, rep, exchangeWorkload{docs: 256, variants: 1, warmup: 512})
}

func runExchangeMaterialize(e *env, rep *report) error {
	return runExchange(e, rep, exchangeWorkload{docs: 256, variants: 256, warmup: 128, materialize: true})
}

// forbidden lists the calls an exchange response must not hold.
func (w exchangeWorkload) forbidden() []string {
	if w.materialize {
		return []string{"Get_Temp", "Get_Date"}
	}
	return nil
}

func (w exchangeWorkload) generate(e *env, endpoint string) (*exchangeInputs, error) {
	rng := e.rng(1)
	in := &exchangeInputs{}
	for i := 0; i < w.docs; i++ {
		var body []byte
		calls := 0
		var err error
		if w.materialize {
			body, calls, err = bigNewspaper(rng, endpoint)
		} else {
			body, err = smallNewspaper(rng, 1024)
		}
		if err != nil {
			return nil, err
		}
		in.names = append(in.names, fmt.Sprintf("news-%03d", i))
		in.bodies = append(in.bodies, body)
		in.calls = append(in.calls, calls)
	}
	for v := 0; v < w.variants; v++ {
		var s []byte
		var err error
		if w.materialize {
			s, err = materializeSchema(v)
		} else {
			s, err = identitySchema()
		}
		if err != nil {
			return nil, err
		}
		in.schemas = append(in.schemas, s)
	}
	return in, nil
}

// exchangeRun holds one run's daemons and inputs.
type exchangeRun struct {
	e       *env
	w       exchangeWorkload
	in      *exchangeInputs
	front   *daemon
	service *daemon // nil for exchange-hot
	ports   [2]int
	// warmVals check the warm-up responses; parsed once, outside the
	// timed set-up.
	warmVals []*validator
}

func runExchange(e *env, rep *report, w exchangeWorkload) error {
	x := &exchangeRun{e: e, w: w}
	var err error
	for i := range x.ports {
		if x.ports[i], err = freePort(); err != nil {
			return err
		}
	}
	if x.in, err = w.generate(e, fmt.Sprintf("http://127.0.0.1:%d/soap", x.ports[1])); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.dir, "paper.axs"), []byte(experiments.PaperSchemaText), 0o644); err != nil {
		return err
	}
	rep.note("inputs: %d documents (mean %d B), %d exchange schema(s) (%d B)",
		len(x.in.bodies), meanLen(x.in.bodies), len(x.in.schemas), meanLen(x.in.schemas))
	if x.warmVals, err = x.validators(); err != nil {
		return err
	}
	defer x.stop()
	if !e.trace {
		if err := timeSetups(rep, x.stop, func() error { return x.setup(rep) }); err != nil {
			return err
		}
		_, err := x.measure(rep, e.seconds, true)
		return err
	}
	if err := x.setup(rep); err != nil {
		return err
	}
	daemon, err := x.measure(rep, e.seconds/2, false)
	if err != nil {
		return err
	}
	return x.replay(rep, e.seconds/2, daemon)
}

func meanLen(bs [][]byte) int {
	n := 0
	for _, b := range bs {
		n += len(b)
	}
	return n / max(len(bs), 1)
}

func (x *exchangeRun) daemons() []*daemon {
	if x.service == nil {
		return []*daemon{x.front}
	}
	return []*daemon{x.service, x.front}
}

func (x *exchangeRun) stop() {
	if x.front != nil {
		stopAll(x.daemons())
	}
	x.front, x.service = nil, nil
}

// setup boots the daemons, installs the document population and sends the
// warm-up requests.
func (x *exchangeRun) setup(rep *report) error {
	schemaPath := filepath.Join(x.e.dir, "paper.axs")
	if x.w.materialize {
		d, err := startDaemon(x.e, "service", x.ports[1], "-schema", schemaPath, "-sim", fmt.Sprint(x.e.seed))
		if err != nil {
			return err
		}
		x.service = d
	}
	d, err := startDaemon(x.e, "front", x.ports[0], "-schema", schemaPath)
	if err != nil {
		x.stop()
		return err
	}
	x.front = d
	c := newClient()
	defer c.CloseIdleConnections()
	for i, name := range x.in.names {
		st, msg, err := do(c, http.MethodPut, d.url+"/doc/"+name, x.in.bodies[i])
		if err != nil || st != http.StatusNoContent {
			return fmt.Errorf("PUT /doc/%s: status %d %v %s", name, st, err, bytes.TrimSpace(msg))
		}
	}
	cl := &caller{x: x, c: c, rng: x.e.rng(50), vals: x.warmVals}
	for i := 0; i < x.w.warmup; i++ {
		cl.exchange(rep)
	}
	rep.count(cl.attempted, cl.failed)
	return nil
}

// caller is one closed-loop client of the front daemon.
type caller struct {
	x          *exchangeRun
	c          *http.Client
	rng        *rand.Rand
	vals       []*validator
	ph         *phase  // the measured phase; nil during warm-up
	done       []stamp // completed exchanges of the phase
	attempted  int64
	failed     int64
	responses  int64 // requests the daemon answered, whatever the status
	serviceOps int64 // service calls the successful exchanges made
}

func (x *exchangeRun) newCaller(c *http.Client, stream int64) (*caller, error) {
	vals, err := x.validators()
	return &caller{x: x, c: c, rng: x.e.rng(stream), vals: vals}, err
}

// validators parses every exchange schema, for one client's checks.
func (x *exchangeRun) validators() ([]*validator, error) {
	var vals []*validator
	for _, s := range x.in.schemas {
		v, err := newValidator(s)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// pick draws the next request: a document and an exchange schema variant.
func (x *exchangeRun) pick(rng *rand.Rand) (doc, variant int) {
	doc = rng.Intn(len(x.in.names))
	if len(x.in.schemas) > 1 {
		variant = rng.Intn(len(x.in.schemas))
	}
	return doc, variant
}

// exchange sends one POST /exchange, records its latency and checks the
// response against the schema it sent.
func (cl *caller) exchange(rep *report) {
	x := cl.x
	i, v := x.pick(cl.rng)
	cl.attempted++
	t0 := time.Now()
	st, body, err := do(cl.c, http.MethodPost, x.front.url+"/exchange/"+x.in.names[i]+"?mode=safe", x.in.schemas[v])
	if err != nil {
		cl.failed++
		rep.problem(false, "exchange %s: %v", x.in.names[i], err)
		return
	}
	cl.responses++
	if st != http.StatusOK {
		cl.failed++
		rep.problem(false, "exchange %s: status %d: %s", x.in.names[i], st, bytes.TrimSpace(body))
		return
	}
	if cl.ph != nil {
		cl.done = append(cl.done, cl.ph.stamp(t0))
	}
	cl.serviceOps += int64(x.in.calls[i])
	if err := cl.vals[v].check(body, x.w.forbidden()...); err != nil {
		cl.failed++
		rep.problem(false, "exchange %s (schema %d): %v", x.in.names[i], v, err)
	}
}

// measure drives the closed loop for d, checks every response and cross-
// checks the client's counts against the daemons'. With report set it
// prints the end-to-end metrics. It returns the daemon's compile-cache hit
// ratio over the phase.
func (x *exchangeRun) measure(rep *report, d time.Duration, report bool) (cacheRatio, error) {
	callers := make([]*caller, clients)
	for i := range callers {
		cl, err := x.newCaller(newClient(), int64(100+i))
		if err != nil {
			return cacheRatio{}, err
		}
		callers[i] = cl
		defer cl.c.CloseIdleConnections()
	}
	before, err := x.front.scrape()
	if err != nil {
		return cacheRatio{}, err
	}
	var svcBefore metrics
	if x.service != nil {
		if svcBefore, err = x.service.scrape(); err != nil {
			return cacheRatio{}, err
		}
	}
	ph, err := startPhase(x.daemons(), d)
	if err != nil {
		return cacheRatio{}, err
	}
	var wg sync.WaitGroup
	for _, cl := range callers {
		cl.ph = ph
		wg.Add(1)
		go func(cl *caller) {
			defer wg.Done()
			for time.Now().Before(ph.deadline()) {
				cl.exchange(rep)
			}
		}(cl)
	}
	wg.Wait()
	var done []stamp
	var attempted, failed, responses, serviceOps int64
	for _, cl := range callers {
		done = append(done, cl.done...)
		attempted += cl.attempted
		failed += cl.failed
		responses += cl.responses
		serviceOps += cl.serviceOps
	}
	rep.count(attempted, failed)
	if report {
		if err := ph.report(rep, done, done); err != nil {
			return cacheRatio{}, err
		}
	}
	after, err := x.front.scrape()
	if err != nil {
		return cacheRatio{}, err
	}
	checkCounts(rep, x.front, before, after, map[string]int64{"exchange": responses})
	if x.service != nil {
		svcAfter, err := x.service.scrape()
		if err != nil {
			return cacheRatio{}, err
		}
		checkCounts(rep, x.service, svcBefore, svcAfter, map[string]int64{"soap": serviceOps})
	}
	hits := after["axml_compile_cache_hits_total"] - before["axml_compile_cache_hits_total"]
	misses := after["axml_compile_cache_misses_total"] - before["axml_compile_cache_misses_total"]
	rep.note("daemon compile cache over the phase: %g hits, %g misses, hit ratio %.4f", hits, misses, ratio(hits, hits+misses))
	lat := make(durations, len(done))
	for i, s := range done {
		lat[i] = s.lat
	}
	rep.note("exchange_p50_ms %.4f  exchange_p99_ms %.4f  (%d samples)",
		ms(lat.quantile(0.5)), ms(lat.quantile(0.99)), len(lat))
	rep.note("error_rate %.6f (%d failed of %d attempted)", ratio(float64(failed), float64(attempted)), failed, attempted)
	return cacheRatio{hits, misses}, nil
}

// cacheRatio is a compile-cache hit count over some lookups.
type cacheRatio struct{ hits, misses float64 }

func (c cacheRatio) ratio() float64 { return ratio(c.hits, c.hits+c.misses) }

// agrees reports whether two hit ratios are the same within four standard
// deviations of their difference (each is a sample of the same LRU over
// the same request distribution), and never closer than 0.02 is asked.
func (c cacheRatio) agrees(o cacheRatio) (bool, float64) {
	p := ratio(c.hits+o.hits, c.hits+c.misses+o.hits+o.misses)
	sd := math.Sqrt(p * (1 - p) * (1/math.Max(c.hits+c.misses, 1) + 1/math.Max(o.hits+o.misses, 1)))
	tol := math.Max(0.02, 4*sd)
	return math.Abs(c.ratio()-o.ratio()) <= tol, tol
}

// localPeer builds an in-process peer configured as axmld configures one
// with default flags, holding the same documents as the front daemon.
func (x *exchangeRun) localPeer() (*peer.Peer, error) {
	s, err := schema.ParseText(experiments.PaperSchemaText, nil)
	if err != nil {
		return nil, err
	}
	p := peer.New("front", s)
	p.Remote = &soap.Invoker{}
	p.Enforcement = core.NewCompiledCache(core.DefaultCompiledCacheSize)
	p.Enforcement.WordCacheCapacity = core.DefaultWordCacheSize
	p.MaxRequestBytes = soap.DefaultMaxRequestBytes
	p.Parallelism = 1
	p.Health = peer.NewHealth()
	p.Health.SetReady(true)
	p.Logger = obslog.New(io.Discard, obslog.Info, obslog.Text)
	p.Telemetry = telemetry.NewRegistry()
	p.Flight = telemetry.NewFlight(telemetry.DefaultFlightSlow, 2*telemetry.DefaultFlightSlow)
	for i, name := range x.in.names {
		d, err := xmlio.Parse(bytes.NewReader(x.in.bodies[i]))
		if err != nil {
			return nil, err
		}
		if err := p.Repo.Put(name, d); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// exchangeReplay calls the layers of POST /exchange in the order
// peer.handleExchange and Peer.SendDocumentContext call them.
type exchangeReplay struct {
	x        *exchangeRun
	p        *peer.Peer
	h        http.Handler
	outer    *tracedInvoker // around the policy chain: one span per call
	words    *telemetry.Histogram
	vals     []*validator
	rng      *rand.Rand
	buf      bytes.Buffer // serialized output, reused
	attempt  int64
	failed   int64
	bytesOut int64

	// per traced request
	hidden     map[int32]time.Duration // core.rewrite span -> word analysis time
	wordNs     time.Duration
	wordHits   uint64
	wordMisses uint64
}

// allocCounts collects heap allocations per layer in the allocation pass.
type allocCounts struct{ parse, rewrite, invoke uint64 }

func (r *exchangeReplay) request(rep *report, t *tracer, req int32, al *allocCounts) time.Duration {
	x, p := r.x, r.p
	i, v := x.pick(r.rng)
	name, body := x.in.names[i], x.in.schemas[v]
	r.attempt++
	start := time.Now()
	root := t.start(req, -1, "peer.exchange")

	var m0 uint64
	if al != nil {
		m0 = mallocs()
	}
	sp := t.start(req, root, "xsdint.parse")
	exchange, err := xsdint.Parse(bytes.NewReader(body), xsdint.Options{Table: p.Schema.Table.Overlay()})
	t.end(sp)
	if al != nil {
		al.parse += mallocs() - m0
	}
	if err != nil {
		return r.fail(rep, name, err)
	}

	sp = t.start(req, root, "store.get")
	d, ok := p.Repo.Get(name)
	t.end(sp)
	if !ok {
		return r.fail(rep, name, fmt.Errorf("no document"))
	}

	misses := p.Enforcement.Stats().Misses
	sp = t.start(req, root, "core.cache_get")
	c := p.Enforcement.Get(p.Schema, exchange)
	t.end(sp)
	if p.Enforcement.Stats().Misses != misses {
		t.rename(sp, "core.compile")
	}
	rw := core.NewRewriterFor(c, p.K, r.outer)
	rw.Audit = p.Audit
	rw.Parallelism = p.Parallelism

	w0, a0 := c.WordCacheStats(), r.words.Sum()
	if al != nil {
		m0 = mallocs()
		r.outer.allocs = &al.invoke
	}
	sp = t.start(req, root, "core.rewrite")
	out, err := rw.RewriteDocumentContext(withSpan(context.Background(), t, req, sp), d, core.Safe)
	t.end(sp)
	if al != nil {
		al.rewrite += mallocs() - m0
		r.outer.allocs = nil
	}
	if t != nil {
		w1 := c.WordCacheStats()
		hidden := time.Duration((r.words.Sum() - a0) * 1e9)
		r.hidden[sp] = hidden
		r.wordNs += hidden
		r.wordHits += w1.Hits - w0.Hits
		r.wordMisses += w1.Misses - w0.Misses
	}
	if err != nil {
		return r.fail(rep, name, err)
	}

	r.buf.Reset()
	sp = t.start(req, root, "xmlio.serialize")
	err = xmlio.WriteTo(&r.buf, out)
	t.end(sp)
	t.end(root)
	total := time.Since(start)
	if err != nil {
		return r.fail(rep, name, err)
	}
	r.bytesOut += int64(r.buf.Len())
	r.checkDoc(rep, name, v, r.buf.Bytes())
	return total
}

func (r *exchangeReplay) fail(rep *report, name string, err error) time.Duration {
	r.failed++
	rep.problem(false, "replayed exchange %s: %v", name, err)
	return 0
}

// checkDoc validates a replayed exchange's output like a daemon response.
func (r *exchangeReplay) checkDoc(rep *report, name string, v int, out []byte) {
	if err := r.vals[v].check(out, r.x.w.forbidden()...); err != nil {
		r.fail(rep, name, err)
	}
}

// handler sends one request through the in-process peer.Handler().
func (r *exchangeReplay) handler(rep *report) time.Duration {
	x := r.x
	i, v := x.pick(r.rng)
	req := httptest.NewRequest(http.MethodPost, "/exchange/"+x.in.names[i]+"?mode=safe", bytes.NewReader(x.in.schemas[v]))
	rec := httptest.NewRecorder()
	r.attempt++
	t0 := time.Now()
	r.h.ServeHTTP(rec, req)
	d := time.Since(t0)
	if rec.Code != http.StatusOK {
		return r.fail(rep, x.in.names[i], fmt.Errorf("handler status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes())))
	}
	r.checkDoc(rep, x.in.names[i], v, rec.Body.Bytes())
	return d
}

// replay is the traced run: the same seeded inputs, replayed in-process in
// rotating blocks of untraced requests, traced requests and requests
// through peer.Handler(), all drawn from one request stream so the caches
// see the same traffic as the daemon.
func (x *exchangeRun) replay(rep *report, d time.Duration, daemon cacheRatio) error {
	p, err := x.localPeer()
	if err != nil {
		return err
	}
	r := &exchangeReplay{x: x, p: p, h: p.Handler(), rng: x.e.rng(200), hidden: map[int32]time.Duration{}}
	// The histogram the program's word analyses report into; Handler()
	// has wired the enforcement cache to the registry.
	r.words = p.Telemetry.Histogram("axml_word_analysis_seconds", telemetry.DefBuckets, "engine", "eager", "mode", "safe")
	inner := &tracedInvoker{name: "soap.call", next: p.Invoker()}
	r.outer = &tracedInvoker{name: "invoke.call", next: core.ApplyPolicies(inner, p.Policies)}
	r.vals = x.warmVals
	for i := 0; i < x.w.warmup; i++ {
		r.request(rep, nil, -1, nil)
	}
	const allocRequests = 16
	var al allocCounts
	for i := 0; i < allocRequests; i++ {
		r.request(rep, nil, -1, &al)
	}
	stats0 := p.Enforcement.Stats()
	t := newTracer()
	var untraced, handled durations
	const block = 16
	var req int32
	deadline := time.Now().Add(d)
	for k := 0; time.Now().Before(deadline) || k < 3; k++ {
		for j := 0; j < block; j++ {
			switch k % 3 {
			case 0:
				untraced = append(untraced, r.request(rep, nil, -1, nil))
			case 1:
				r.request(rep, t, req, nil)
				req++
			case 2:
				handled = append(handled, r.handler(rep))
			}
		}
	}
	stats1 := p.Enforcement.Stats()
	rep.count(r.attempt, r.failed)

	lt := t.aggregate(r.hidden)
	if lt.violations > 0 {
		rep.problem(true, "%d traced requests or spans have self times that do not fit their total", lt.violations)
	}
	var traced, layers durations
	for req, total := range lt.totals {
		traced = append(traced, total)
		layers = append(layers, lt.layers[req])
	}
	n := float64(len(traced))
	local := cacheRatio{float64(stats1.Hits - stats0.Hits), float64(stats1.Misses - stats0.Misses)}
	hitRatio := local.ratio()
	calls := float64(lt.count("invoke.call"))
	attempts := float64(lt.count("soap.call"))
	vals := map[string]float64{
		"xsdint.parse_us":           us(lt.mean("xsdint.parse")),
		"xsdint.parse_allocs":       float64(al.parse) / allocRequests,
		"core.cache_get_us":         us(lt.mean("core.cache_get")),
		"core.cache_hit_ratio":      hitRatio,
		"core.compile_us":           us(lt.mean("core.compile")),
		"core.word_verdict_us":      us(r.wordNs) / n,
		"core.word_cache_hit_ratio": ratio(float64(r.wordHits), float64(r.wordHits+r.wordMisses)),
		"core.rewrite_self_us":      us(lt.meanSelf("core.rewrite")),
		"core.rewrite_allocs":       float64(al.rewrite-al.invoke) / allocRequests,
		"soap.call_us":              us(lt.mean("soap.call")),
		"soap.call_p99_us":          us(lt.durs["soap.call"].quantile(0.99)),
		"soap.calls_per_req":        calls / n,
		"invoke.retry_ratio":        ratio(attempts-calls, calls),
		"xmlio.serialize_us":        us(lt.mean("xmlio.serialize")),
		"xmlio.bytes_out_per_req":   float64(r.bytesOut) / float64(r.attempt-int64(len(handled))),
		"store.get_us":              us(lt.mean("store.get")),
		"peer.overhead_us":          us(handled.mean() - layers.mean()),
		"trace.overhead_pct":        overheadPct(traced, untraced),
		"trace.requests":            n,
	}
	emitLayers(rep, vals)
	rep.note("traced %d requests, untraced %d, through peer.Handler %d; %d compile-cache hits, %d misses",
		len(traced), len(untraced), len(handled), int(local.hits), int(local.misses))
	if ok, tol := daemon.agrees(local); !ok {
		rep.problem(true, "compile-cache hit ratio: daemon %.4f, traced run %.4f (tolerance %.4f)", daemon.ratio(), hitRatio, tol)
	} else {
		rep.note("cross-check compile-cache hit ratio: daemon %.4f, traced run %.4f (tolerance %.4f)", daemon.ratio(), hitRatio, tol)
	}
	if x.w.materialize && hitRatio > 0.3 {
		rep.problem(true, "exchange schema variants do not miss the compile cache: hit ratio %.4f", hitRatio)
	}
	if !x.w.materialize && hitRatio < 0.99 {
		rep.problem(true, "the identity exchange schema misses the compile cache: hit ratio %.4f", hitRatio)
	}
	return t.write(x.e.traceFile())
}
