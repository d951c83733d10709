package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	serverBin string
	outDir    string

	// The run's size: trialsPerRun and writeProbeBatches, except in the
	// package's own short tests.
	trials     int // fresh-server repetitions per run (see runner.trial)
	writeProbe int // batches of the write probe, per trial
}

const (
	// trialsPerRun is how many fresh-server trials a run makes; the
	// main phase is split evenly across them.
	trialsPerRun = 7
	// writeProbeBatches is how many batches the write probe sends per
	// trial.
	writeProbeBatches = 400
	// probePasses is how often the compile probe cycles the pool per
	// trial: 15 templates x 12 passes x 7 trials pool 1260 compile
	// samples, 12 of them beyond the p99. Only the first answerPasses
	// also load the DB and ask the CQ, because a p50 needs far fewer
	// samples than a p99 and the query roughly doubles an op's cost.
	probePasses  = 12
	answerPasses = 4
	// reopensPerTrial is how many restarts each trial times.
	reopensPerTrial = 3
)

// clients is the closed-loop caller count of read_hot and compile_cold:
// never more connections than CPUs (write_live uses one writer plus one
// SSE stream).
func clients() int {
	if n := runtime.NumCPU(); n < 2 {
		return 1
	}
	return 2
}

// liveDB is a mutable fact DB driven by a single writer: the writer
// knows the exact fact set at every version, which keys every
// reference of that DB.
type liveDB struct {
	base    string
	name    string // reference-key prefix: base plus the trial or replay tag
	initial *graph
	g       *graph
	id      string
	history []string            // facts at version v (history[0] unused)
	reads   map[uint64][]string // read-back shapes asked at version v
	ver     versionLog
	sent    map[uint64]time.Time

	mu     sync.Mutex
	frames []sseFrame
	cancel func()
}

func newLiveDB(name string, size graphSize, rng *rand.Rand) *liveDB {
	return &liveDB{base: name, initial: newGraph(size, rng)}
}

// reset returns the DB model to version 1 for a fresh data dir; tag
// keeps the references of separate histories apart.
func (l *liveDB) reset(tag string) {
	l.name = l.base + "." + tag
	l.g = l.initial.clone()
	l.history = []string{"", l.g.facts()}
	l.reads = map[uint64][]string{}
	l.ver = versionLog{last: 1}
	l.sent = map[uint64]time.Time{}
	l.frames = nil
}

// read records that cq was asked at version v, so that versionRefs
// computes its reference there.
func (l *liveDB) read(v uint64, cq string) {
	for _, s := range l.reads[v] {
		if s == cq {
			return
		}
	}
	l.reads[v] = append(l.reads[v], cq)
}

func (l *liveDB) onFrame(f sseFrame) {
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
}

// lastFrameVersion is the newest version the stream delivered.
func (l *liveDB) lastFrameVersion() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.frames) == 0 {
		return 0
	}
	return l.frames[len(l.frames)-1].version
}

// runner executes one workload run.
type runner struct {
	cfg  config
	rng  *rand.Rand
	dir  string
	data string
	srv  *server
	c    *client
	chk  *checker
	refs map[string]answerSet
	hot  *hotRef
	pool []template // compile_cold pool in this run's seeded order

	thID     string
	hotFacts []string
	hotIDs   []string
	live     *liveDB // write_live's DB
	probe    *liveDB // the write probe's DB (read_hot, compile_cold)

	read, write, compile, first, lag samples
	setupS, reopenS, rssS            []float64
	mainOps                          int
	mainDur                          time.Duration
	trialTag                         string // names the live DBs of the current trial
	trialLines                       []string
	trialVals                        map[string][]float64 // per-trial throughput and medians
	deltas                           map[string]int64     // the workload server's counter growth over the measured phases
	probeDeltas                      map[string]int64     // the compile probe server's counter growth
	spanFile                         string
}

func newRunner(cfg config) (*runner, error) {
	dir, err := os.MkdirTemp(cfg.outDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	r := &runner{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.seed)),
		dir:  dir,
		chk:  newChecker(),
		refs: map[string]answerSet{},

		trialVals:   map[string][]float64{},
		deltas:      map[string]int64{},
		probeDeltas: map[string]int64{},
	}
	if r.hot, err = newHotRef(); err != nil {
		return nil, err
	}
	// Inputs come from the seed alone, drawn in a fixed order.
	for i := 0; i < hotDBs; i++ {
		r.hotFacts = append(r.hotFacts, newGraph(hotSize, r.rng).facts())
	}
	r.live = newLiveDB("live", liveSize, r.rng)
	r.probe = newLiveDB("probe", probeSize, r.rng)
	for _, i := range r.rng.Perm(len(pinnedTemplates)) {
		r.pool = append(r.pool, pinnedTemplates[i])
	}
	return r, nil
}

func (r *runner) close() {
	if r.srv != nil {
		r.srv.kill()
		r.srv = nil
	}
	os.RemoveAll(r.dir)
}

// prepare computes the fixture and template references (before boot,
// outside every timed section).
func (r *runner) prepare() error {
	if r.cfg.workload == "read_hot" || r.cfg.trace { // the traced replay reads the hot DBs on every workload
		for i, facts := range r.hotFacts {
			fix, err := r.hot.fixpoint(facts)
			if err != nil {
				return err
			}
			for _, q := range r.hotQueries(i) {
				ans, err := hotAnswers(fix, q)
				if err != nil {
					return err
				}
				r.refs[hotKey(q)] = ans
			}
		}
	}
	for i := range pinnedTemplates {
		t := &pinnedTemplates[i]
		inst, err := instantiate(t, "_ref")
		if err != nil {
			return err
		}
		ans, err := templateAnswers(inst)
		if err != nil {
			return err
		}
		if ans.N != t.answers || ans.Hash != t.hash {
			r.chk.wrongf("template %s: reference answers %d rows (%s) differ from the pin %d rows (%s)", t.name, ans.N, ans.Hash, t.answers, t.hash)
		}
		r.refs[templateKey(t)] = ans
	}
	return nil
}

// hotQueries lists every query a read_hot DB can receive: the CQ shapes
// and one atom query per node.
func (r *runner) hotQueries(db int) []hotQuery {
	var qs []hotQuery
	for i, cq := range hotCQs {
		qs = append(qs, hotQuery{db: db, cq: i, label: cq})
	}
	for n := 0; n < hotSize.nodes; n++ {
		qs = append(qs, hotQuery{db: db, cq: -1, atom: atomQuery(n), label: atomQuery(n)})
	}
	return qs
}

func hotKey(q hotQuery) string       { return fmt.Sprintf("hot%d|%s", q.db, q.label) }
func templateKey(t *template) string { return "tpl|" + t.name }

// boot starts a server on a fresh data dir.
func (r *runner) boot() error {
	data, err := os.MkdirTemp(r.dir, "data-")
	if err != nil {
		return err
	}
	r.data = data
	if r.srv, err = startServer(r.cfg.serverBin, data); err != nil {
		return err
	}
	r.c = newClient(r.srv.base)
	return nil
}

// shutdown stops the server gracefully and ends its subscriptions.
func (r *runner) shutdown() error {
	err := r.srv.stop()
	r.srv = nil
	r.c.close()
	for _, l := range []*liveDB{r.live, r.probe} {
		if l.cancel != nil {
			l.cancel()
			l.cancel = nil
		}
	}
	return err
}

// setup boots a server and registers and warms the workload's fixtures;
// it is what setup_s times.
func (r *runner) setup() error {
	if err := r.boot(); err != nil {
		return err
	}
	var th theoryResp
	if err := r.postJSON("/v1/theories", map[string]string{"source": hotTheory}, &th); err != nil {
		return fmt.Errorf("register hot theory: %w", err)
	}
	if th.Mode != "translated" {
		return fmt.Errorf("hot theory compiled to mode %s, want translated", th.Mode)
	}
	r.thID = th.ID
	switch r.cfg.workload {
	case "read_hot":
		r.hotIDs = nil
		for _, facts := range r.hotFacts {
			id, err := r.loadDB(facts)
			if err != nil {
				return err
			}
			r.hotIDs = append(r.hotIDs, id)
		}
		// Warm every plan on every DB.
		for db := range r.hotFacts {
			for i, cq := range hotCQs {
				r.hotQuery(r.c, hotQuery{db: db, cq: i, label: cq}, nil)
			}
			q := hotQuery{db: db, cq: -1, atom: atomQuery(db), label: atomQuery(db)}
			r.hotQuery(r.c, q, nil)
		}
		return r.loadLive(r.probe)
	case "write_live":
		if err := r.openLive(r.live); err != nil {
			return err
		}
		for _, cq := range liveReadCQs {
			r.liveRead(r.c, r.live, cq, nil)
		}
		return nil
	default: // compile_cold
		if err := r.loadLive(r.probe); err != nil {
			return err
		}
		for i := range r.pool {
			r.compileOp(r.c, &r.pool[i], freshSuffix(r.cfg.seed, "w", i), nil, nil, nil)
		}
		return nil
	}
}

// openLive loads a live DB at version 1 and subscribes to its CQ.
func (r *runner) openLive(l *liveDB) error {
	if err := r.loadLive(l); err != nil {
		return err
	}
	return r.subscribe(l)
}

// loadLive loads a live DB at version 1.
func (r *runner) loadLive(l *liveDB) error {
	l.reset(r.trialTag)
	id, err := r.loadDB(l.history[1])
	l.id = id
	return err
}

func (r *runner) subscribe(l *liveDB) error {
	l.mu.Lock()
	l.frames = nil
	l.mu.Unlock()
	cancel, err := subscribe(r.srv.base, l.id, r.thID, liveCQ, l.onFrame)
	if err != nil {
		return err
	}
	l.cancel = cancel
	return nil
}

func (r *runner) loadDB(facts string) (string, error) {
	var db struct {
		ID      string `json:"id"`
		Version uint64 `json:"version"`
	}
	if err := r.postJSON("/v1/dbs", map[string]string{"facts": facts}, &db); err != nil {
		return "", fmt.Errorf("load db: %w", err)
	}
	return db.ID, nil
}

func (r *runner) postJSON(path string, body, out any) error {
	rep := r.c.post(path, body)
	if f := replyFailure(rep); f != "" {
		return fmt.Errorf("%s: %s", path, f)
	}
	return json.Unmarshal(rep.body, out)
}

// hotQuery sends one read_hot request and records its outcome into chk;
// lat receives the latency of a successful request.
func (r *runner) hotQuery(c *client, q hotQuery, lat *samples) {
	body := map[string]string{"theory_id": r.thID, "db_id": r.hotIDs[q.db]}
	if q.cq >= 0 {
		body["cq"] = q.label
	} else {
		body["atom"] = q.atom
	}
	t0 := time.Now()
	rep := c.post("/v1/query", body)
	d := time.Since(t0)
	r.recordQuery(rep, d, hotKey(q), lat)
}

// recordQuery decodes a query reply, records the op and the answer.
func (r *runner) recordQuery(rep reply, d time.Duration, key string, lat *samples) {
	qr, f := decodeQuery(rep)
	r.chk.op(f)
	if f != "" {
		return
	}
	if lat != nil {
		lat.add(d)
	}
	r.chk.observe(key, qr.Answers)
}

// liveRead queries a live DB and keys the answer by the version the
// server reports; a version other than the writer's last acknowledged
// one is a stale or phantom read.
func (r *runner) liveRead(c *client, l *liveDB, cq string, lat *samples) {
	t0 := time.Now()
	rep := c.post("/v1/query", map[string]string{"theory_id": r.thID, "db_id": l.id, "cq": cq})
	d := time.Since(t0)
	qr, f := decodeQuery(rep)
	r.chk.op(f)
	if f != "" {
		return
	}
	if lat != nil {
		lat.add(d)
	}
	if qr.DBVersion != l.ver.last {
		r.chk.wrongf("%s: read after acknowledged version %d served version %d", l.name, l.ver.last, qr.DBVersion)
	}
	l.read(qr.DBVersion, cq)
	r.chk.observe(versionKey(l.name, qr.DBVersion, cq), qr.Answers)
}

// writeBatch sends one seeded batch; false means the writer's model of
// the DB can no longer be trusted (the batch failed) and the caller
// must stop writing.
func (r *runner) writeBatch(c *client, l *liveDB, rng *rand.Rand, lat *samples) bool {
	b := l.g.nextBatch(rng)
	next := l.ver.last + 1
	t0 := time.Now()
	l.sent[next] = t0
	rep := c.post("/v1/dbs/"+l.id+"/facts", map[string]string{"add": b.addText(), "retract": b.retractText()})
	d := time.Since(t0)
	f := replyFailure(rep)
	var resp struct {
		Version uint64 `json:"version"`
	}
	if f == "" {
		if err := json.Unmarshal(rep.body, &resp); err != nil {
			f = "undecodable response body: " + err.Error()
		}
	}
	r.chk.op(f)
	if f != "" {
		return false
	}
	lat.add(d)
	l.ver.ack(r.chk, resp.Version)
	l.history = append(l.history, l.g.facts())
	return true
}

// compileOp is one compile_cold op: register a never-seen instance of
// the template, load its DB, ask its CQ twice (cold plan, then plan
// hit). Latencies of successful requests go to the given series.
func (r *runner) compileOp(c *client, t *template, suffix string, compile, first, second *samples) {
	inst, th, ok := r.register(c, t, suffix, compile)
	if !ok {
		return
	}
	add := func(s *samples, d time.Duration) {
		if s != nil {
			s.add(d)
		}
	}
	rep := c.post("/v1/dbs", map[string]string{"facts": inst.facts})
	var db struct {
		ID string `json:"id"`
	}
	f := replyFailure(rep)
	if f == "" {
		if err := json.Unmarshal(rep.body, &db); err != nil {
			f = "undecodable response body: " + err.Error()
		}
	}
	if f != "" {
		r.chk.op(f)
		return
	}
	query := map[string]string{"theory_id": th.ID, "db_id": db.ID, "cq": inst.cq}
	t0 := time.Now()
	rep = c.post("/v1/query", query)
	d := time.Since(t0)
	qr, f := decodeQuery(rep)
	if f == "" {
		f = pinFailure(t, th, len(qr.Chain))
	}
	if f != "" {
		r.chk.op(f)
		return
	}
	add(first, d)
	r.chk.observe(templateKey(t), qr.Answers)
	t0 = time.Now()
	rep = c.post("/v1/query", query)
	d = time.Since(t0)
	qr, f = decodeQuery(rep)
	r.chk.op(f)
	if f != "" {
		return
	}
	add(second, d)
	r.chk.observe(templateKey(t), qr.Answers)
}

// register posts a never-seen instance of the template; a failed
// request is recorded as a failed op and returns false.
func (r *runner) register(c *client, t *template, suffix string, compile *samples) (instance, theoryResp, bool) {
	var th theoryResp
	inst, err := instantiate(t, suffix)
	if err != nil {
		r.chk.op("instantiate: " + err.Error())
		return inst, th, false
	}
	t0 := time.Now()
	rep := c.post("/v1/theories", map[string]string{"source": inst.theory})
	d := time.Since(t0)
	f := replyFailure(rep)
	if f == "" {
		if err := json.Unmarshal(rep.body, &th); err != nil {
			f = "undecodable response body: " + err.Error()
		}
	}
	if f != "" {
		r.chk.op(f)
		return inst, th, false
	}
	if compile != nil {
		compile.add(d)
	}
	return inst, th, true
}

// registerOp is a compile op without the query: the registration
// alone, checked against the template's mode and chain pins.
func (r *runner) registerOp(c *client, t *template, suffix string, compile *samples) {
	if _, th, ok := r.register(c, t, suffix, compile); ok {
		r.chk.op(pinFailure(t, th, t.planChain))
	}
}

// closedLoop runs n callers until the deadline; each caller gets its
// own runner shard (checker and series) so the hot path takes no
// locks. It returns the shards and the measured duration.
func (r *runner) closedLoop(n int, dur time.Duration, body func(sh *runner, c *client, i int, stop func() bool)) ([]*runner, time.Duration) {
	shards := make([]*runner, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i := range shards {
		sh := *r
		sh.chk = newChecker()
		sh.read, sh.write, sh.compile, sh.first, sh.lag = nil, nil, nil, nil, nil
		sh.mainOps = 0
		shards[i] = &sh
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newClient(r.srv.base)
			defer c.close()
			body(shards[i], c, i, func() bool { return time.Now().After(deadline) })
		}(i)
	}
	wg.Wait()
	return shards, time.Since(start)
}

// merge folds a shard's outcomes and series into r.
func (r *runner) merge(sh *runner) {
	r.chk.attempted += sh.chk.attempted
	for k, v := range sh.chk.failures {
		r.chk.failures[k] += v
	}
	r.chk.examples = append(r.chk.examples, sh.chk.examples...)
	r.chk.wrong = append(r.chk.wrong, sh.chk.wrong...)
	r.chk.obs = append(r.chk.obs, sh.chk.obs...)
	r.read = append(r.read, sh.read...)
	r.write = append(r.write, sh.write...)
	r.compile = append(r.compile, sh.compile...)
	r.first = append(r.first, sh.first...)
}

// mainReadHot: closed-loop plan-hit reads over the fixture DBs.
func (r *runner) mainReadHot(dur time.Duration) {
	shards, took := r.closedLoop(clients(), dur, func(sh *runner, c *client, i int, stop func() bool) {
		rng := rand.New(rand.NewSource(r.cfg.seed*131 + int64(i)))
		for n := 0; !stop(); n++ {
			q := hotNext(rng, n)
			before := len(sh.read)
			sh.hotQuery(c, q, &sh.read)
			if len(sh.read) > before {
				sh.mainOps++
			}
		}
	})
	r.mainDur += took
	for _, sh := range shards {
		r.mainOps += sh.mainOps
		r.merge(sh)
	}
}

// mainWriteLive: one writer alternates a seeded batch with a read of
// the version it just wrote, while the SSE subscriber folds deltas.
func (r *runner) mainWriteLive(dur time.Duration) {
	rng := rand.New(rand.NewSource(r.cfg.seed*131 + 7))
	c := newClient(r.srv.base)
	defer c.close()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		if !r.writeBatch(c, r.live, rng, &r.write) {
			break
		}
		before := len(r.read)
		r.liveRead(c, r.live, liveReadCQ(i), &r.read)
		if len(r.read) > before {
			r.mainOps++
		}
	}
	r.mainDur += time.Since(start)
}

// mainCompileCold: closed-loop compile ops over fresh template
// instances, cycling the seeded pool order.
func (r *runner) mainCompileCold(dur time.Duration) {
	var next atomic.Int64
	shards, took := r.closedLoop(clients(), dur, func(sh *runner, c *client, _ int, stop func() bool) {
		for !stop() {
			k := int(next.Add(1) - 1)
			t := &r.pool[k%len(r.pool)]
			before := len(sh.read)
			sh.compileOp(c, t, freshSuffix(r.cfg.seed, "c", k), &sh.compile, &sh.first, &sh.read)
			if len(sh.read) > before {
				sh.mainOps++
			}
		}
	})
	r.mainDur += took
	for _, sh := range shards {
		r.mainOps += sh.mainOps
		r.merge(sh)
	}
}

// writeProbe drives the probe DB with a fixed number of batches (write
// and delta-lag series for workloads whose own traffic has none).
func (r *runner) writeProbe() {
	rng := rand.New(rand.NewSource(r.cfg.seed*131 + 11))
	c := newClient(r.srv.base)
	defer c.close()
	for i := 0; i < r.cfg.writeProbe; i++ {
		if !r.writeBatch(c, r.probe, rng, &r.write) {
			break
		}
	}
}

// compileProbe runs probePasses compile ops per pool template, the first
// answerPasses of them with their first query (compile and first-answer
// series for workloads whose own traffic has none), on
// a second, in-memory server. In-memory, because persisting each
// artifact made the probe's compile latency follow the host's disk
// jitter rather than the compile path; on its own server, because its
// KBs and DBs would overflow the caches and evict the workload's
// fixtures. compile_cold measures the durable compile path.
func (r *runner) compileProbe() error {
	srv, err := startServer(r.cfg.serverBin, "")
	if err != nil {
		return err
	}
	c := newClient(srv.base)
	defer c.close()
	err = r.measured(c, r.probeDeltas, func() {
		for i := 0; i < probePasses*len(r.pool); i++ {
			t, suffix := &r.pool[i%len(r.pool)], freshSuffix(r.cfg.seed, "p"+r.trialTag, i)
			if i < answerPasses*len(r.pool) {
				r.compileOp(c, t, suffix, &r.compile, &r.first, nil)
			} else {
				r.registerOp(c, t, suffix, &r.compile)
			}
		}
	})
	if serr := srv.stop(); err == nil {
		err = serr
	}
	return err
}

// quiesce waits until the subscription delivered the last acknowledged
// version, then closes it and checks the stream.
func (r *runner) quiesce(l *liveDB) {
	deadline := time.Now().Add(10 * time.Second)
	for l.lastFrameVersion() < l.ver.last && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if l.cancel != nil {
		l.cancel()
		l.cancel = nil
	}
	l.mu.Lock()
	frames := l.frames
	l.mu.Unlock()
	for _, f := range frames {
		if t, ok := l.sent[f.version]; ok && f.event == "delta" {
			r.lag.add(f.at.Sub(t))
		}
	}
	r.versionRefs(l)
	checkStream(r.chk, l.name, liveCQ, frames, r.refs, l.ver.last)
}

// versionRefs computes the reference of every version of a live DB
// from scratch, across CPUs: the subscribed CQ at every version, and
// each read-back shape at the versions it was asked.
func (r *runner) versionRefs(l *liveDB) {
	type res struct {
		v    uint64
		refs map[string]answerSet
		err  error
	}
	out := make(chan res, len(l.history))
	var next atomic.Int64
	next.Store(1)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v := next.Add(1) - 1
				if v >= int64(len(l.history)) {
					return
				}
				m := map[string]answerSet{}
				fix, err := r.hot.fixpoint(l.history[v])
				for _, cq := range append([]string{liveCQ}, l.reads[uint64(v)]...) {
					if err == nil {
						var rows [][]string
						rows, err = cqAnswers(fix, cq)
						m[versionKey(l.name, uint64(v), cq)] = canonical(rows)
					}
				}
				out <- res{uint64(v), m, err}
			}
		}()
	}
	wg.Wait()
	close(out)
	for x := range out {
		if x.err != nil {
			r.chk.wrongf("%s: reference at version %d: %v", l.name, x.v, x.err)
		}
		for k, v := range x.refs {
			r.refs[k] = v
		}
	}
}

// reopenOnce restarts the server on the same data dir and times until
// the first query returns the correct answer. Like a client that cannot
// know what the restarted server kept resident, it re-registers the
// theory and re-posts the DB's source first (a resident entry answers
// from memory; an evicted one reopens its store at the last committed
// version). For a live DB, the restarted server must serve the last
// acknowledged version unchanged.
func (r *runner) reopenOnce() error {
	if err := r.shutdown(); err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := startServer(r.cfg.serverBin, r.data)
	if err != nil {
		return err
	}
	r.srv, r.c = srv, newClient(srv.base)
	var th theoryResp
	if err := r.postJSON("/v1/theories", map[string]string{"source": hotTheory}, &th); err != nil {
		return err
	}
	var l *liveDB
	facts, key, cq := r.hotFacts[0], hotKey(hotQuery{db: 0, cq: 0, label: hotCQs[0]}), hotCQs[0]
	if r.cfg.workload != "read_hot" {
		l = r.live
		if r.cfg.workload == "compile_cold" {
			l = r.probe
		}
		facts, key, cq = l.history[1], versionKey(l.name, l.ver.last, liveCQ), liveCQ
	}
	id, err := r.loadDB(facts)
	if err != nil {
		return err
	}
	rep := r.c.post("/v1/query", map[string]string{"theory_id": th.ID, "db_id": id, "cq": cq})
	d := time.Since(t0)
	qr, f := decodeQuery(rep)
	r.chk.op(f)
	if f != "" {
		return nil
	}
	if l != nil && qr.DBVersion != l.ver.last {
		r.chk.wrongf("%s: after restart served version %d, last acknowledged %d", l.name, qr.DBVersion, l.ver.last)
	}
	r.chk.observe(key, qr.Answers)
	r.reopenS = append(r.reopenS, d.Seconds())
	return nil
}

// measured runs f and adds the growth of the /metrics counters of c's
// server over it to deltas. The /metrics connection is closed while f
// runs, so it does not add to f's own connections.
func (r *runner) measured(c *client, deltas map[string]int64, f func()) error {
	m0, err := c.metrics()
	if err != nil {
		return err
	}
	c.close()
	f()
	m1, err := c.metrics()
	if err != nil {
		return err
	}
	for k, v := range m1 {
		deltas[k] += v - m0[k]
	}
	return nil
}

// reopens restarts the server reopensPerTrial times.
func (r *runner) reopens() error {
	for i := 0; i < reopensPerTrial; i++ {
		if err := r.reopenOnce(); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
	}
	return nil
}

// run executes the whole workload: references, then the trials, then
// the comparison of every observed answer with its reference.
func (r *runner) run() error {
	if err := r.prepare(); err != nil {
		return err
	}
	main := time.Duration(r.cfg.seconds * float64(time.Second))
	if r.cfg.trace {
		main /= 2
	}
	main /= time.Duration(r.cfg.trials)
	for t := 0; t < r.cfg.trials; t++ {
		if err := r.trial(t, main); err != nil {
			return fmt.Errorf("trial %d: %w", t, err)
		}
	}
	r.chk.judge(r.refs)
	return nil
}

// trial runs the workload once on a fresh server and data dir: set-up
// (timed), the measured phases, one restart (timed), shutdown. Series
// pool across trials; one-shot figures (set-up, restart, peak RSS) are
// reported as the median over trials.
func (r *runner) trial(t int, main time.Duration) error {
	r.trialTag = fmt.Sprintf("t%d", t)
	t0 := time.Now()
	if err := r.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	ops, dur := r.mainOps, r.mainDur
	start := map[string]int{"read": len(r.read), "write": len(r.write), "lag": len(r.lag), "compile": len(r.compile), "first": len(r.first)}
	defer func() {
		tv := map[string]float64{
			"ops_per_s":           float64(r.mainOps-ops) / (r.mainDur - dur).Seconds(),
			"read_p50_ms":         r.read[start["read"]:].p50(),
			"write_p50_ms":        r.write[start["write"]:].p50(),
			"delta_lag_p50_ms":    r.lag[start["lag"]:].p50(),
			"compile_p50_ms":      r.compile[start["compile"]:].p50(),
			"first_answer_p50_ms": r.first[start["first"]:].p50(),
		}
		line := fmt.Sprintf("trial %d:", t)
		for _, k := range endToEndNames {
			if v, ok := tv[k]; ok {
				r.trialVals[k] = append(r.trialVals[k], v)
				line += fmt.Sprintf(" %s %.3f", k, v)
			}
		}
		r.trialLines = append(r.trialLines, line)
	}()
	var err error
	switch r.cfg.workload {
	case "read_hot":
		// The probe subscribes after the main phase, so the stream is not
		// open next to the two readers.
		if err := r.measured(r.c, r.deltas, func() { r.mainReadHot(main) }); err != nil {
			return err
		}
		if err := r.subscribe(r.probe); err != nil {
			return err
		}
		err = r.measured(r.c, r.deltas, func() {
			r.writeProbe()
			r.quiesce(r.probe)
		})
	case "write_live":
		err = r.measured(r.c, r.deltas, func() {
			r.mainWriteLive(main)
			r.quiesce(r.live)
		})
	case "compile_cold":
		// Restart before the load: the main phase leaves persisted state
		// that grows with throughput, which would make reopen_s measure
		// the load rather than the restart.
		if err := r.reopens(); err != nil {
			return err
		}
		if err := r.subscribe(r.probe); err != nil {
			return err
		}
		err = r.measured(r.c, r.deltas, func() {
			r.writeProbe()
			r.quiesce(r.probe)
			r.mainCompileCold(main)
		})
	}
	if err != nil {
		return err
	}
	rss, err := r.srv.vmHWMMB()
	if err != nil {
		return err
	}
	r.rssS = append(r.rssS, rss)
	if r.cfg.workload != "compile_cold" {
		if err := r.reopens(); err != nil {
			return err
		}
		r.c.close()
		if err := r.compileProbe(); err != nil {
			return err
		}
	}
	if err := r.shutdown(); err != nil {
		return err
	}
	return os.RemoveAll(r.data)
}
