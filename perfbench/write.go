package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"axml/internal/doc"
	"axml/internal/experiments"
	"axml/internal/replica"
	"axml/internal/store"
	"axml/internal/wal"
	"axml/internal/xmlio"
)

const (
	writeKeys   = 1024
	writeWarmup = 512
	// probeEvery is how many replayed writer operations pass between two
	// replica-visibility probes in the traced run.
	probeEvery = 4
	// visibleTimeout bounds the wait for a probe to reach the follower.
	visibleTimeout = 5 * time.Second
	probeName      = "probe"
	// probeInterval paces client 2: probe n is sent n intervals into the
	// phase, so its load on the daemons does not depend on their speed.
	probeInterval = 5 * time.Millisecond
	// pollPause separates two visibility polls of the follower, so that
	// client 2 does not keep a core busy while the writer is measured.
	pollPause = 100 * time.Microsecond
)

// writeInputs are two versions of each key's ~2 KiB document.
type writeInputs struct {
	names  []string
	bodies [][2][]byte
}

func generateWrites(e *env) (*writeInputs, error) {
	rng := e.rng(1)
	in := &writeInputs{}
	for k := 0; k < writeKeys; k++ {
		var pair [2][]byte
		for v := range pair {
			b, err := smallNewspaper(rng, 2048)
			if err != nil {
				return nil, err
			}
			pair[v] = b
		}
		in.names = append(in.names, fmt.Sprintf("doc-%04d", k))
		in.bodies = append(in.bodies, pair)
	}
	return in, nil
}

// probeBody renders the n-th probe document.
func probeBody(n int) ([]byte, error) {
	return render(doc.Elem(probeName, doc.TextNode(strconv.Itoa(n))))
}

// writer is client 1's state: which keys are present and at which version,
// so that GET and DELETE only target present documents and every GET
// answer can be compared byte for byte.
type writer struct {
	in      *writeInputs
	rng     *rand.Rand
	present []int // keys currently stored
	pos     []int // key -> index in present, -1 when absent
	version []int
}

func newWriter(in *writeInputs, rng *rand.Rand) *writer {
	w := &writer{in: in, rng: rng, pos: make([]int, writeKeys), version: make([]int, writeKeys)}
	for k := range w.pos {
		w.pos[k] = -1
	}
	return w
}

func (w *writer) add(k, v int) {
	if w.pos[k] < 0 {
		w.pos[k] = len(w.present)
		w.present = append(w.present, k)
	}
	w.version[k] = v
}

func (w *writer) remove(k int) {
	i := w.pos[k]
	last := w.present[len(w.present)-1]
	w.present[i] = last
	w.pos[last] = i
	w.present = w.present[:len(w.present)-1]
	w.pos[k] = -1
}

// writeOp is one writer operation.
type writeOp struct {
	method string
	key    int
	body   []byte // PUT payload, or the expected GET answer
}

// next draws 60% PUT (of a random key, alternating its version), 20% GET
// and 20% DELETE (both of a present key), and applies it to the state.
func (w *writer) next() writeOp {
	r := w.rng.Intn(10)
	if r < 6 || len(w.present) == 0 {
		k := w.rng.Intn(writeKeys)
		v := 0
		if w.pos[k] >= 0 {
			v = 1 - w.version[k]
		}
		w.add(k, v)
		return writeOp{http.MethodPut, k, w.in.bodies[k][v]}
	}
	k := w.present[w.rng.Intn(len(w.present))]
	if r < 8 {
		return writeOp{http.MethodGet, k, w.in.bodies[k][w.version[k]]}
	}
	w.remove(k)
	return writeOp{method: http.MethodDelete, key: k}
}

// wantStatus is the status axmld answers an operation with.
func (op writeOp) wantStatus() int {
	if op.method == http.MethodGet {
		return http.StatusOK
	}
	return http.StatusNoContent
}

// writeRun holds one run's daemons and inputs.
type writeRun struct {
	e        *env
	in       *writeInputs
	leader   *daemon
	follower *daemon
	w        *writer
	ports    [2]int
	setups   int
}

func runWriteReplicated(e *env, rep *report) error {
	in, err := generateWrites(e)
	if err != nil {
		return err
	}
	size := 0
	for _, p := range in.bodies {
		size += len(p[0]) + len(p[1])
	}
	rep.note("inputs: %d keys x 2 versions (mean %d B)", writeKeys, size/(2*writeKeys))
	if e.trace {
		return replayWrites(e, rep, in)
	}
	x := &writeRun{e: e, in: in}
	for i := range x.ports {
		if x.ports[i], err = freePort(); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(e.dir, "paper.axs"), []byte(experiments.PaperSchemaText), 0o644); err != nil {
		return err
	}
	defer x.stop()
	if err := timeSetups(rep, x.stop, func() error { return x.setup(rep) }); err != nil {
		return err
	}
	return x.measure(rep)
}

func (x *writeRun) daemons() []*daemon { return []*daemon{x.leader, x.follower} }

func (x *writeRun) stop() {
	if x.leader != nil {
		stopAll(x.daemons())
	}
	x.leader, x.follower = nil, nil
}

// setup boots the leader and the follower, installs the population on the
// leader, runs the warm-up operations and waits for the follower to catch
// up.
func (x *writeRun) setup(rep *report) error {
	x.setups++
	schemaPath := filepath.Join(x.e.dir, "paper.axs")
	data := filepath.Join(x.e.dir, fmt.Sprintf("leader-%d", x.setups))
	l, err := startDaemon(x.e, "leader", x.ports[0], "-schema", schemaPath,
		"-role", "leader", "-store", "wal", "-data-dir", data, "-wal-sync", "interval")
	if err != nil {
		return err
	}
	x.leader = l
	f, err := startDaemon(x.e, "follower", x.ports[1], "-schema", schemaPath,
		"-role", "follower", "-leader", l.url)
	if err != nil {
		x.stop()
		return err
	}
	x.follower = f
	c := newClient()
	defer c.CloseIdleConnections()
	x.w = newWriter(x.in, x.e.rng(50))
	for k, name := range x.in.names {
		if st, msg, err := do(c, http.MethodPut, l.url+"/doc/"+name, x.in.bodies[k][0]); err != nil || st != http.StatusNoContent {
			return fmt.Errorf("PUT /doc/%s: status %d %v %s", name, st, err, bytes.TrimSpace(msg))
		}
		x.w.add(k, 0)
	}
	var s opStats
	for i := 0; i < writeWarmup; i++ {
		x.writeOnce(rep, c, &s)
	}
	rep.count(s.attempted, s.failed)
	return x.waitCaughtUp()
}

// opStats is one client's accounting.
type opStats struct {
	ph        *phase // the measured phase; nil during warm-up
	done      []stamp
	lat       map[string][]stamp
	attempted int64
	failed    int64
	responses int64
}

// observe records a completed operation of the measured phase.
func (s *opStats) observe(method string, t0 time.Time) {
	if s.ph == nil {
		return
	}
	if s.lat == nil {
		s.lat = map[string][]stamp{}
	}
	st := s.ph.stamp(t0)
	s.done = append(s.done, st)
	s.lat[method] = append(s.lat[method], st)
}

// writeOnce performs the writer's next operation against the leader.
func (x *writeRun) writeOnce(rep *report, c *http.Client, s *opStats) {
	op := x.w.next()
	var body []byte
	if op.method == http.MethodPut {
		body = op.body
	}
	name := x.in.names[op.key]
	s.attempted++
	t0 := time.Now()
	st, got, err := do(c, op.method, x.leader.url+"/doc/"+name, body)
	if err != nil {
		s.failed++
		rep.problem(false, "%s /doc/%s: %v", op.method, name, err)
		return
	}
	s.responses++
	if st != op.wantStatus() {
		s.failed++
		rep.problem(false, "%s /doc/%s: status %d: %s", op.method, name, st, bytes.TrimSpace(got))
		return
	}
	s.observe(op.method, t0)
	if op.method == http.MethodGet && !bytes.Equal(got, op.body) {
		s.failed++
		rep.problem(false, "GET /doc/%s: the leader's answer differs from the last PUT", name)
	}
}

// probe PUTs the n-th probe to the leader and polls the follower until it
// serves it, recording the time from the PUT's acknowledgement.
func (x *writeRun) probe(rep *report, c *http.Client, n int, s *opStats, visible *durations, follower *int64) {
	body, err := probeBody(n)
	if err != nil {
		s.failed++
		rep.problem(false, "probe %d: %v", n, err)
		return
	}
	s.attempted++
	st, msg, err := do(c, http.MethodPut, x.leader.url+"/doc/"+probeName, body)
	ack := time.Now()
	if err != nil || st != http.StatusNoContent {
		s.failed++
		rep.problem(false, "probe %d PUT: status %d %v %s", n, st, err, bytes.TrimSpace(msg))
		return
	}
	s.responses++
	for {
		st, got, err := do(c, http.MethodGet, x.follower.url+"/doc/"+probeName, nil)
		if err == nil {
			*follower++
		}
		if err == nil && st == http.StatusOK && bytes.Equal(got, body) {
			*visible = append(*visible, time.Since(ack))
			return
		}
		if time.Since(ack) > visibleTimeout {
			s.failed++
			rep.problem(false, "probe %d not visible on the follower after %v", n, visibleTimeout)
			return
		}
		time.Sleep(pollPause)
	}
}

// replicaHead reads the leader's head and the follower's applied position.
func (x *writeRun) replicaHead() (head, applied uint64, err error) {
	var ls, fs struct {
		Replica struct {
			HeadSeq    uint64 `json:"head_seq"`
			AppliedSeq uint64 `json:"applied_seq"`
		} `json:"replica"`
	}
	if err := getJSON(x.leader.url+"/stats", &ls); err != nil {
		return 0, 0, err
	}
	if err := getJSON(x.follower.url+"/stats", &fs); err != nil {
		return 0, 0, err
	}
	return ls.Replica.HeadSeq, fs.Replica.AppliedSeq, nil
}

func (x *writeRun) waitCaughtUp() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		head, applied, err := x.replicaHead()
		if err != nil {
			return err
		}
		if applied >= head {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at %d of %d", applied, head)
		}
		time.Sleep(time.Millisecond)
	}
}

func (x *writeRun) measure(rep *report) error {
	lc, pc := newClient(), newClient()
	defer lc.CloseIdleConnections()
	defer pc.CloseIdleConnections()
	lBefore, err := x.leader.scrape()
	if err != nil {
		return err
	}
	fBefore, err := x.follower.scrape()
	if err != nil {
		return err
	}
	ph, err := startPhase(x.daemons(), x.e.seconds)
	if err != nil {
		return err
	}
	ws := opStats{ph: ph}
	var ps opStats
	var visible durations
	var followerGets int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for time.Now().Before(ph.deadline()) {
			x.writeOnce(rep, lc, &ws)
		}
	}()
	go func() {
		defer wg.Done()
		for n := 1; ; n++ {
			next := ph.start.Add(time.Duration(n) * probeInterval)
			if !next.Before(ph.deadline()) {
				return
			}
			time.Sleep(time.Until(next))
			x.probe(rep, pc, n, &ps, &visible, &followerGets)
		}
	}()
	wg.Wait()
	rep.count(ws.attempted+ps.attempted, ws.failed+ps.failed)
	if err := ph.report(rep, ws.done, ws.lat[http.MethodPut]); err != nil {
		return err
	}
	lAfter, err := x.leader.scrape()
	if err != nil {
		return err
	}
	fAfter, err := x.follower.scrape()
	if err != nil {
		return err
	}
	checkCounts(rep, x.leader, lBefore, lAfter, map[string]int64{"doc": ws.responses + ps.responses})
	checkCounts(rep, x.follower, fBefore, fAfter, map[string]int64{"doc": followerGets})
	for _, m := range []string{http.MethodPut, http.MethodGet, http.MethodDelete} {
		var l durations
		for _, s := range ws.lat[m] {
			l = append(l, s.lat)
		}
		rep.note("%s p50 %.4f ms  p99 %.4f ms  (%d samples)", m, ms(l.quantile(0.5)), ms(l.quantile(0.99)), len(l))
	}
	rep.note("replica_visible p50 %.4f ms  p99 %.4f ms  (%d samples)", ms(visible.quantile(0.5)), ms(visible.quantile(0.99)), len(visible))
	failed, attempted := ws.failed+ps.failed, ws.attempted+ps.attempted
	rep.note("error_rate %.6f (%d failed of %d attempted)", ratio(float64(failed), float64(attempted)), failed, attempted)
	if err := x.waitCaughtUp(); err != nil {
		return err
	}
	return x.compareReplicas(rep)
}

// compareReplicas checks that the follower serves exactly the leader's
// documents, byte for byte.
func (x *writeRun) compareReplicas(rep *report) error {
	c := newClient()
	defer c.CloseIdleConnections()
	lnames, err := listDocs(x.leader.url)
	if err != nil {
		return err
	}
	fnames, err := listDocs(x.follower.url)
	if err != nil {
		return err
	}
	if fmt.Sprint(lnames) != fmt.Sprint(fnames) {
		rep.problem(true, "follower holds %d documents, leader %d", len(fnames), len(lnames))
		return nil
	}
	for _, name := range lnames {
		_, lb, err1 := do(c, http.MethodGet, x.leader.url+"/doc/"+name, nil)
		_, fb, err2 := do(c, http.MethodGet, x.follower.url+"/doc/"+name, nil)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("comparing %s: %v %v", name, err1, err2)
		}
		if !bytes.Equal(lb, fb) {
			rep.problem(true, "follower's %s differs from the leader's", name)
		}
	}
	rep.note("cross-check replicas: %d documents byte-identical on leader and follower", len(lnames))
	return nil
}

// listDocs pages through GET /docs.
func listDocs(base string) ([]string, error) {
	var names []string
	after := ""
	for {
		var page struct {
			Documents []string `json:"documents"`
			Next      string   `json:"next"`
		}
		if err := getJSON(base+"/docs?limit=1000&after="+after, &page); err != nil {
			return nil, err
		}
		names = append(names, page.Documents...)
		if page.Next == "" {
			sort.Strings(names)
			return names, nil
		}
		after = page.Next
	}
}

// writeReplay is the traced run of write-replicated: a WAL leader store
// served to a replica.Follower through replica.Source behind httptest, all
// in-process, driven with the writer's operations in the order
// peer.handleDoc calls the layers.
type writeReplay struct {
	leader  *store.DurableRepository
	follow  store.DocStore
	src     *replica.Source
	fol     *replica.Follower
	in      *writeInputs
	w       *writer
	buf     bytes.Buffer
	gets    int64 // GETs replayed, and the bytes they served
	served  int64
	attempt int64
	failed  int64
}

func replayWrites(e *env, rep *report, in *writeInputs) error {
	st, err := store.Open(store.Options{
		Backend:       store.BackendWAL,
		Dir:           filepath.Join(e.dir, "leader"),
		Sync:          wal.SyncInterval,
		SyncInterval:  wal.DefaultSyncInterval,
		SnapshotEvery: 1024,
		ReplicaTail:   4096,
	})
	if err != nil {
		return err
	}
	r := &writeReplay{leader: st.(*store.DurableRepository), follow: store.NewRepository(), in: in, w: newWriter(in, e.rng(200))}
	r.src = replica.NewSource(r.leader, nil)
	mux := http.NewServeMux()
	mux.Handle("/replica/", http.StripPrefix("/replica", r.src.Handler()))
	srv := httptest.NewServer(mux)
	r.fol = replica.NewFollower(replica.FollowerOptions{Leader: srv.URL, Store: r.follow})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = r.fol.Run(ctx)
	}()
	defer func() {
		cancel()
		wg.Wait()
		srv.Close()
		_ = r.leader.Close()
	}()

	for k := range in.names {
		r.w.add(k, 0)
		r.op(rep, nil, -1, writeOp{http.MethodPut, k, in.bodies[k][0]})
	}
	for i := 0; i < writeWarmup; i++ {
		r.op(rep, nil, -1, r.w.next())
	}
	if _, err := r.waitVisible(); err != nil {
		return err
	}
	wal0 := r.leader.Stats().WAL
	t := newTracer()
	var untraced, traced, visible durations
	const block = 32
	var req int32
	probes := 0
	deadline := time.Now().Add(e.seconds)
	for k := 0; time.Now().Before(deadline) || k < 2; k++ {
		tt := t
		if k%2 == 0 {
			tt = nil
		}
		for j := 0; j < block; j++ {
			d := r.op(rep, tt, req, r.w.next())
			if tt == nil {
				untraced = append(untraced, d)
			} else {
				traced = append(traced, d)
				req++
			}
			if j%probeEvery != probeEvery-1 {
				continue
			}
			probes++
			body, err := probeBody(probes)
			if err != nil {
				return err
			}
			r.op(rep, tt, req, writeOp{method: http.MethodPut, key: -1, body: body})
			if tt != nil {
				req++
			}
			root := tt.start(req, -1, "replica.visible")
			v, err := r.waitVisible()
			tt.end(root)
			if tt != nil {
				req++
			}
			if err != nil {
				r.failed++
				rep.problem(false, "probe %d: %v", probes, err)
				continue
			}
			visible = append(visible, v)
		}
	}
	wal1 := r.leader.Stats().WAL
	if _, err := r.waitVisible(); err != nil {
		return err
	}
	r.compare(rep)
	rep.count(r.attempt, r.failed)

	lt := t.aggregate(nil)
	if lt.violations > 0 {
		rep.problem(true, "%d traced requests or spans have self times that do not fit their total", lt.violations)
	}
	appends := float64(wal1.Appends - wal0.Appends)
	fs := r.fol.Stats()
	vals := map[string]float64{
		"xmlio.parse_us":          us(lt.mean("xmlio.parse")),
		"store.put_us":            us(lt.mean("store.put")),
		"store.get_us":            us(lt.mean("store.get")),
		"store.delete_us":         us(lt.mean("store.delete")),
		"xmlio.serialize_us":      us(lt.mean("xmlio.serialize")),
		"xmlio.bytes_out_per_req": ratio(float64(r.served), float64(r.gets)),
		"wal.bytes_per_append":    ratio(float64(wal1.AppendedBytes-wal0.AppendedBytes), appends),
		"wal.fsyncs_per_append":   ratio(float64(wal1.Fsyncs-wal0.Fsyncs), appends),
		"wal.snapshots":           float64(wal1.Snapshots - wal0.Snapshots),
		"replica.visible_us":      us(visible.mean()),
		"replica.visible_p99_us":  us(visible.quantile(0.99)),
		"replica.apply_errors":    float64(fs.ApplyErrors),
		"replica.reconnects":      float64(fs.Reconnects),
		"replica.bootstraps":      float64(fs.Bootstraps),
		"trace.overhead_pct":      overheadPct(traced, untraced),
		"trace.requests":          float64(len(traced)),
	}
	emitLayers(rep, vals)
	rep.note("traced %d operations, untraced %d, %d visibility probes; WAL %d appends, %d snapshots",
		len(traced), len(untraced), len(visible), int(appends), wal1.Snapshots-wal0.Snapshots)
	return t.write(e.traceFile())
}

// op performs one writer operation the way peer.handleDoc does: PUT parses
// the body and stores it, GET reads and serializes, DELETE removes. A key of
// -1 names the probe document.
func (r *writeReplay) op(rep *report, t *tracer, req int32, op writeOp) time.Duration {
	name := probeName
	if op.key >= 0 {
		name = r.in.names[op.key]
	}
	r.attempt++
	start := time.Now()
	var err error
	switch op.method {
	case http.MethodPut:
		root := t.start(req, -1, "peer.doc_put")
		sp := t.start(req, root, "xmlio.parse")
		var d *doc.Node
		d, err = xmlio.Parse(bytes.NewReader(op.body))
		t.end(sp)
		if err == nil {
			sp = t.start(req, root, "store.put")
			err = r.leader.Put(name, d)
			t.end(sp)
		}
		t.end(root)
	case http.MethodGet:
		root := t.start(req, -1, "peer.doc_get")
		sp := t.start(req, root, "store.get")
		d, ok := r.leader.Get(name)
		t.end(sp)
		if !ok {
			err = fmt.Errorf("not found")
			t.end(root)
			break
		}
		r.buf.Reset()
		sp = t.start(req, root, "xmlio.serialize")
		err = xmlio.WriteTo(&r.buf, d)
		t.end(sp)
		t.end(root)
		r.gets++
		r.served += int64(r.buf.Len())
		if err == nil && !bytes.Equal(r.buf.Bytes(), op.body) {
			err = fmt.Errorf("answer differs from the last PUT")
		}
	case http.MethodDelete:
		root := t.start(req, -1, "peer.doc_delete")
		sp := t.start(req, root, "store.delete")
		err = r.leader.Delete(name)
		t.end(sp)
		t.end(root)
	}
	d := time.Since(start)
	if err != nil {
		r.failed++
		rep.problem(false, "replayed %s /doc/%s: %v", op.method, name, err)
	}
	return d
}

// waitVisible waits until the follower has applied everything the leader
// has logged.
func (r *writeReplay) waitVisible() (time.Duration, error) {
	t0 := time.Now()
	head := r.src.Stats().HeadSeq
	for r.fol.Stats().AppliedSeq < head {
		if time.Since(t0) > visibleTimeout {
			return 0, fmt.Errorf("follower stuck at %d of %d", r.fol.Stats().AppliedSeq, head)
		}
		runtime.Gosched()
	}
	return time.Since(t0), nil
}

// compare checks that the in-process follower holds exactly the leader's
// documents.
func (r *writeReplay) compare(rep *report) {
	lnames, fnames := r.leader.Names(), r.follow.Names()
	sort.Strings(lnames)
	sort.Strings(fnames)
	if fmt.Sprint(lnames) != fmt.Sprint(fnames) {
		rep.problem(true, "in-process follower holds %d documents, leader %d", len(fnames), len(lnames))
		return
	}
	for _, name := range lnames {
		ld, _ := r.leader.Get(name)
		fd, _ := r.follow.Get(name)
		lb, err1 := xmlio.String(ld)
		fb, err2 := xmlio.String(fd)
		if err1 != nil || err2 != nil || lb != fb {
			rep.problem(true, "in-process follower's %s differs from the leader's", name)
		}
	}
	rep.note("cross-check in-process replicas: %d documents identical", len(lnames))
}
