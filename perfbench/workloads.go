package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/xqdb/xqdb"
)

// Single-row writes use keys far above any LoadXMLDir key, so a delete
// by key removes exactly the row its insert added.
const (
	probeKeyBase  = 1_000_000 // the read workloads' write windows
	writerKeyBase = 2_000_000 // ingest_rw's writer
)

// The read workloads' write windows run blocks of blockInserts single-row
// inserts, then blockDeletes single-row deletes of them and one
// key-range delete of the rest.
const (
	blockInserts = 100
	blockDeletes = 10
)

func runWorkload(s spec, cfg config) (*report, error) {
	root := filepath.Join(cfg.work, fmt.Sprintf("%s-%d-%d", s.name, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	// Deleting thousands of files leaves the file system work to do in
	// the background; waiting for it here keeps it out of the next
	// run's measurements.
	defer syscall.Sync()
	defer os.RemoveAll(root)
	t0 := time.Now()
	c, err := makeCorpus(filepath.Join(root, "in"), rand.New(rand.NewSource(cfg.seed)), s.orders, s.batch)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	// Flush the new files before anything is timed, so the kernel's
	// write-back of them does not run during set-up and the timed phase.
	syscall.Sync()
	rep := newReport()
	rep.notef("stage generate: %.2f s", time.Since(t0).Seconds())
	rep.docs, rep.xmlBytes = c.docs, c.xmlBytes
	// A closed loop gives each client its own stream; the open loop draws
	// every send, on whichever connection, from one.
	streams := make([]stream, s.clients)
	if s.rate > 0 {
		streams = streams[:1]
	}
	for i := range streams {
		streams[i] = s.stream(cfg.seed*100 + int64(i))
	}
	w := &workload{spec: s, cfg: cfg, c: c, streams: streams, rep: rep, ans: newAnswers(), epoch: time.Now(),
		rng: rand.New(rand.NewSource(cfg.seed + 7))}
	switch {
	case s.rate > 0:
		err = w.runHTTP()
	case s.batch > 0:
		err = w.runReadWrite()
	default:
		err = w.runInproc()
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := w.finishTrace(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// workload is one run's state.
type workload struct {
	spec    spec
	cfg     config
	c       *corpus
	streams []stream
	rep     *report
	ans     *answers
	epoch   time.Time
	rng     *rand.Rand
	traced  *phase // the traced phase's reads, for the span file
}

// runInproc is indexed_mix and scan_heavy: timed reads in-process,
// each round followed by a short write window, then the answer check
// and, traced, the ladder.
func (w *workload) runInproc() error {
	warm := warmup(w.spec.stream)
	db, n, setupS, loadS, heap, err := timedSetups(w.c.dir, 1, warm)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setup := deltaOf(xqdb.MetricsSnapshot{}, db.MetricsSnapshot())
	cl := inproc{db: db}
	var rt0 rtSample
	m, err := w.timedRounds(target{
		read: func(d time.Duration, traced bool) *phase {
			return closedLoop(d, w.streams, cl.query, w.ans, traced, w.epoch)
		},
		writes:   cl,
		snapshot: func() (xqdb.MetricsSnapshot, error) { return db.MetricsSnapshot(), nil },
		mark:     func() error { rt0 = readRT(); return nil },
		stop:     func() (rtSample, error) { return readRT().sub(rt0), nil },
		gc:       func() error { runtime.GC(); return nil },
		setup:    func() (float64, float64, error) { return extraSetup(w.c.dir, warm) },
	}, n)
	if err != nil {
		return err
	}
	w.setupMetrics(n, append(setupS, m.setupS...), append(loadS, m.loadS...), heap)

	w.readMetrics(m.ph, m.tph)
	w.writeMetrics(m.wl)
	w.check(cl.rows, db)
	if w.cfg.trace {
		w.layerMetrics(m.ph, m.tph, m.cd, setup, m.rt, m.ph.ops(), m.wl)
		return w.ladder(db)
	}
	return nil
}

// rounds is how many read windows a read workload's untraced timed
// phase is cut into; a write window follows each. The shared host's
// speed shifts by a fifth or more for seconds at a time, so spreading
// reads and writes over the whole run, rather than timing the writes in
// one slice at its end, gives both the same mix of fast and slow
// periods. Each write window invalidates the probe cache, so each read
// window starts with it partly cold.
const rounds = 5

// target is what a read workload's rounds run against: the database in
// this process, or the server process over HTTP.
type target struct {
	read     func(d time.Duration, traced bool) *phase
	writes   writer
	snapshot func() (xqdb.MetricsSnapshot, error)
	mark     func() error             // opens a runtime-counter window
	stop     func() (rtSample, error) // closes it and returns its deltas
	gc       func() error
	// setup times one more set-up on a database it discards, and
	// collects the garbage.
	setup func() (setupS, loadS float64, err error)
}

// measured is what a read workload's timed phases recorded.
type measured struct {
	ph, tph *phase       // the untraced read windows, merged; the traced phase
	cd      counterDelta // counter deltas over the read windows
	rt      rtSample     // runtime counters over the untraced read windows
	wl      *writeLog
	// setupS and loadS are the extra set-ups' and their loads' seconds.
	setupS, loadS []float64
}

// timedRounds runs a read workload's timed phases: rounds of an
// untraced read window, a write window and the spec's extra set-ups,
// and, traced, one traced read phase. rows is the table's row count,
// which every write window restores.
func (w *workload) timedRounds(t target, rows int) (*measured, error) {
	du, dt := phaseLen(w.cfg)
	m := &measured{cd: newDelta(), wl: &writeLog{}}
	// read runs a read window and adds its counter changes to m.cd. The
	// probe cache drops a stale entry, and counts the invalidation, only
	// when a read looks the entry up, so the invalidations the writes
	// cause show here too.
	read := func(d time.Duration, traced bool) (*phase, error) {
		s0, err := t.snapshot()
		if err != nil {
			return nil, err
		}
		ph := t.read(d, traced)
		s1, err := t.snapshot()
		if err != nil {
			return nil, err
		}
		m.cd.add(deltaOf(s0, s1))
		return ph, nil
	}
	var logs []*clientLog
	var secs float64
	for i := 0; i < rounds; i++ {
		if err := t.mark(); err != nil {
			return nil, err
		}
		ph, err := read(du/rounds, false)
		if err != nil {
			return nil, err
		}
		rt, err := t.stop()
		if err != nil {
			return nil, err
		}
		m.rt = m.rt.plus(rt)
		logs = append(logs, ph.logs...)
		secs += ph.secs
		// The write window starts without the reads' garbage.
		if err := t.gc(); err != nil {
			return nil, err
		}
		m.wl = m.wl.plus(w.writePhase(t.writes, rows, writeLen(w.cfg)/rounds))
		for k := 0; k < w.spec.setups; k++ {
			s, l, err := t.setup()
			if err != nil {
				return nil, fmt.Errorf("set-up: %w", err)
			}
			m.setupS, m.loadS = append(m.setupS, s), append(m.loadS, l)
		}
	}
	m.ph = merge(logs, secs)
	if w.cfg.trace {
		tph, err := read(dt, true)
		if err != nil {
			return nil, err
		}
		m.tph = tph
	}
	return m, nil
}

// runReadWrite is ingest_rw: one writer and one reader share the
// database for each timed phase; the writer finishes its cycle after the
// deadline, so the table is back at its loaded size when it quiesces.
func (w *workload) runReadWrite() error {
	db, n, setupS, loadS, heap, err := timedSetups(w.c.dir, w.spec.setups, warmup(w.spec.stream))
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	w.setupMetrics(n, setupS, loadS, heap)
	cl := inproc{db: db}
	du, dt := phaseLen(w.cfg)
	nextKey := writerKeyBase
	both := func(d time.Duration, traced bool) (*phase, *writeLog) {
		var wl *writeLog
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl = writerLoop(time.Now().Add(d), db, w.c, w.spec.writes, n, &nextKey, w.rng)
		}()
		ph := closedLoop(d, w.streams, cl.query, w.ans, traced, w.epoch)
		wg.Wait()
		return ph, wl
	}

	snap0 := db.MetricsSnapshot()
	rt0 := readRT()
	ph, wl := both(du, false)
	rt := readRT().sub(rt0)
	var tph *phase
	all := wl
	if w.cfg.trace {
		var twl *writeLog
		tph, twl = both(dt, true)
		all = wl.plus(twl)
	}
	cd := deltaOf(snap0, db.MetricsSnapshot())

	w.readMetrics(ph, tph)
	w.writeMetrics(all)
	w.rep.e2e["load_docs_per_s"] = median(all.loadRate)
	w.checkRowCount(db, n, all.finalRows)
	w.check(cl.rows, db)
	if w.cfg.trace {
		w.layerMetrics(ph, tph, cd, cd, rt, ph.ops()+wl.ops, all)
		return w.ladder(db)
	}
	return nil
}

// runHTTP is http_serve: the server runs in its own process, built from
// the same corpus; the benchmark sends the indexed_mix stream over
// loopback on a fixed schedule.
func (w *workload) runHTTP() error {
	srv, err := startServer(w.c.dir)
	if err != nil {
		return err
	}
	defer srv.close()
	rd := srv.ready
	h := newHTTPClient(rd.Addr, w.spec.clients)
	loaded, err := h.metrics()
	if err != nil {
		return err
	}
	m, err := w.timedRounds(target{
		read: func(d time.Duration, traced bool) *phase {
			return openLoop(d, w.spec.rate, w.spec.clients, w.streams[0], h, w.ans, traced, w.epoch)
		},
		writes:   h,
		snapshot: h.metrics,
		mark:     srv.mark,
		stop:     srv.stop,
		gc:       srv.gc,
		setup:    srv.setup,
	}, rd.Docs)
	if err != nil {
		return err
	}
	w.setupMetrics(rd.Docs, append([]float64{rd.SetupS}, m.setupS...), append([]float64{rd.LoadS}, m.loadS...), rd.HeapBytes)
	setup := deltaOf(xqdb.MetricsSnapshot{}, loaded)

	w.readMetrics(m.ph, m.tph)
	w.writeMetrics(m.wl)
	// The reference answers come from a database built in this process
	// from the same files.
	ref, _, _, err := setupDB(w.c.dir, warmup(w.spec.stream))
	if err != nil {
		return fmt.Errorf("reference set-up: %w", err)
	}
	w.check(func(q query) ([][]string, error) {
		resp, err := h.post(q.text, q.sql)
		if err != nil {
			return nil, err
		}
		return resp.Rows, nil
	}, ref)
	if err := srv.close(); err != nil {
		return fmt.Errorf("server: %w", err)
	}
	if w.cfg.trace {
		w.layerMetrics(m.ph, m.tph, m.cd, setup, m.rt, m.ph.ops(), m.wl)
		return w.ladder(ref)
	}
	return nil
}

// timeStage notes how long a stage of the run took.
func (w *workload) timeStage(name string, start time.Time) {
	w.rep.notef("stage %s: %.2f s", name, time.Since(start).Seconds())
}

func (w *workload) setupMetrics(docs int, setupS, loadS []float64, heap float64) {
	w.rep.e2e["setup_s"] = median(setupS)
	w.rep.e2e["heap_bytes_per_xml_byte"] = heap / float64(w.c.xmlBytes)
	w.rep.e2e["load_docs_per_s"] = float64(docs) / median(loadS)
	w.rep.notef("setup: %d set-ups of %d docs, median %.4f s, total %.2f s", len(setupS), docs, median(setupS), sum(setupS))
}

// readMetrics records the read phases' operations and the untraced
// phase's latency and throughput.
func (w *workload) readMetrics(ph, tph *phase) {
	for _, p := range []*phase{ph, tph} {
		if p == nil {
			continue
		}
		for _, l := range p.logs {
			w.rep.count(int64(len(l.lat))+l.n, l.failures)
		}
	}
	w.rep.samples = len(ph.lat)
	w.rep.e2e["query_throughput_qps"] = float64(len(ph.lat)) / ph.secs
	w.rep.e2e["query_p50_ms"] = quantile(ph.lat, 0.5)
	w.rep.e2e["query_p99_ms"] = quantile(ph.lat, 0.99)
	w.rep.notef("queries: %d in %.2f s", len(ph.lat), ph.secs)
	for shape, lat := range ph.byShape {
		w.rep.notef("shape %s: %d queries, p50 %.4f ms, p99 %.4f ms", shape, len(lat), quantile(lat, 0.5), quantile(lat, 0.99))
	}
	if len(ph.lat) < 1000 {
		w.rep.notef("query samples: only %d, fewer than the 1000 a p99 needs", len(ph.lat))
	}
	if tph != nil {
		w.traced = tph
	}
}

func (w *workload) writeMetrics(wl *writeLog) {
	w.rep.count(wl.ops, wl.failures)
	w.rep.e2e["insert_p50_ms"] = median(wl.insertMS)
	w.rep.e2e["delete_p50_ms"] = median(wl.deleteMS)
	w.rep.notef("writes: %d inserts, %d single-row deletes, %d batch loads, %d range deletes",
		len(wl.insertMS), len(wl.deleteMS), len(wl.loadRate), len(wl.rangeMS))
}

// check verifies a seeded sample of the distinct query texts the timed
// phases ran: each answer, fetched the way the workload fetches it, must
// be byte-identical to the full-scan serial baseline on ref, and its row
// count must equal the count the timed phases saw.
func (w *workload) check(get func(query) ([][]string, error), ref *xqdb.DB) {
	defer w.timeStage("answer check", time.Now())
	texts := w.ans.texts()
	r := rand.New(rand.NewSource(w.cfg.seed))
	r.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	texts = texts[:min(len(texts), w.spec.checks)]
	var f failures
	for i, t := range texts {
		q := w.ans.byTxt[t]
		got, err := get(q)
		if err != nil {
			f.fail("check %s: %v", q.shape, err)
			continue
		}
		if w.cfg.corrupt && i == 0 {
			got = corruptRows(got)
		}
		want, err := reference(ref, q)
		if err != nil {
			f.fail("check %s reference: %v", q.shape, err)
			continue
		}
		if encodeRows(got) != encodeRows(want) {
			f.fail("check %s: answer differs from the full-scan baseline: %s", q.shape, t)
			continue
		}
		if len(got) != w.ans.first[t] {
			f.fail("check %s: %d rows, the timed runs saw %d: %s", q.shape, len(got), w.ans.first[t], t)
		}
	}
	w.rep.count(int64(len(texts)), f)
	w.rep.notef("answer check: %d of %d distinct query texts, %d failed", len(texts), len(w.ans.first), f.n)
}

// corruptRows damages an answer: drops its last row, or adds one to an
// empty answer.
func corruptRows(rows [][]string) [][]string {
	if len(rows) == 0 {
		return [][]string{{"corrupted"}}
	}
	return rows[:len(rows)-1]
}

// checkRowCount verifies, after the writer quiesced, that the table
// holds exactly the rows the writer's bookkeeping expects.
func (w *workload) checkRowCount(db *xqdb.DB, loaded, expected int) {
	q := query{shape: "row_count", text: `fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC'))`}
	want := fmt.Sprintf(`[["%d"]]`, expected)
	var f failures
	for _, get := range []func(query) ([][]string, error){
		inproc{db: db}.rows,
		func(q query) ([][]string, error) { return reference(db, q) },
	} {
		rows, err := get(q)
		switch {
		case err != nil:
			f.fail("row count: %v", err)
		case encodeRows(rows) != want || expected != loaded:
			f.fail("row count %s, want %d (loaded %d)", encodeRows(rows), expected, loaded)
		}
	}
	w.rep.count(2, f)
}

// layerMetrics derives the per-layer metrics from the traced phase's
// spans, the counter deltas of the read phases (cd; for ingest_rw, whose
// writer runs beside its reader, the whole window), the ingest counters
// (ingest: the set-up load, or the window for ingest_rw), and the
// runtime counters of the untraced phase over its ops operations.
func (w *workload) layerMetrics(ph, tph *phase, cd, ingest counterDelta, rt rtSample, ops int64, wl *writeLog) {
	L := w.rep.layer
	note := w.rep.notef
	reads := float64(ph.ops() + tph.ops())

	hits, misses := cd.get("plancache.hits"), cd.get("plancache.misses")
	L["plancache.hit_ratio"] = ratio(hits, hits+misses)
	L["plancache.stale_share"] = ratio(cd.get("plancache.stale"), misses)
	note("plancache: %.0f hits, %.0f misses, %.0f stale", hits, misses, cd.get("plancache.stale"))

	ph1, pm := cd.get("probecache.hits"), cd.get("probecache.misses")
	L["probecache.hit_ratio"] = ratio(ph1, ph1+pm)
	L["probecache.invalidations_per_write"] = ratio(cd.get("probecache.invalidations"), float64(wl.ops))
	L["probe.keys_per_query"] = ratio(cd.get("probes.keys_visited"), reads)
	L["btree.keys_per_scan"] = ratio(cd.get("btree.keys_visited"), cd.get("btree.scans"))
	L["synopsis.skip_share"] = ratio(cd.get("synopsis.shortcircuits"), cd.get("probes.total"))
	note("probecache: %.0f hits, %.0f misses; %.0f invalidations over %d writes", ph1, pm, cd.get("probecache.invalidations"), wl.ops)
	note("probes: %.0f probes, %.0f keys, %.0f synopsis skips over %.0f reads; btree %.0f scans, %.0f keys",
		cd.get("probes.total"), cd.get("probes.keys_visited"), cd.get("synopsis.shortcircuits"), reads, cd.get("btree.scans"), cd.get("btree.keys_visited"))

	L["engine.nodes_seeded_per_query"] = ratio(cd.get("engine.nodes_seeded"), reads)
	L["engine.index_only_share"] = ratio(cd.get("engine.index_only_answers"), reads)
	L["prefilter.survival_ratio"] = ratio(cd.get("docs.scanned"), cd.get("docs.total"))
	L["exec.shards_per_query"] = ratio(cd.get("exec.parallel_shards"), cd.get("exec.parallel_queries"))
	note("engine: %.0f nodes seeded, %.0f index-only answers, docs %.0f scanned of %.0f, %.0f shards over %.0f parallel queries",
		cd.get("engine.nodes_seeded"), cd.get("engine.index_only_answers"), cd.get("docs.scanned"), cd.get("docs.total"),
		cd.get("exec.parallel_shards"), cd.get("exec.parallel_queries"))

	docs := ingest.get("ingest.docs")
	L["ingest.parse_ns_per_doc"] = ratio(ingest.get("ingest.parse_ns"), docs)
	L["ingest.index_ns_per_doc"] = ratio(ingest.get("ingest.index_ns"), docs)
	note("ingest: %.0f docs", docs)

	// The engine reports the rows a DELETE removed, not the rows it
	// examined, so this ratio comes from the writer's own bookkeeping: a
	// constant of the workload until the engine counts rows examined.
	L["sqlxml.delete_rows_examined_per_row"] = ratio(wl.examined, wl.deleted)
	note("sqlxml delete: %.0f rows in the table over %.0f rows deleted", wl.examined, wl.deleted)

	requests := cd.get("http.requests")
	L["admission.shed_share"] = ratio(cd.get("admission.shed"), requests)
	L["admission.wait_ms"] = ratio(float64(cd.histSumN["admission.queue.wait"])/1e6, float64(cd.histN["admission.queue.wait"]))
	var overhead, lag []float64
	for _, p := range []*phase{ph, tph} {
		for _, l := range p.logs {
			overhead = append(overhead, l.overhead...)
		}
	}
	for _, l := range ph.logs {
		lag = append(lag, l.lag...)
	}
	L["http.overhead_ms"] = mean(overhead)
	L["generator_lag_ms"] = mean(lag)
	if requests > 0 {
		note("http: %.0f requests, %.0f shed, %d queue waits", requests, cd.get("admission.shed"), cd.histN["admission.queue.wait"])
	}

	L["gc.cpu_share"] = ratio(rt.GCCPU, rt.TotalCPU)
	L["alloc_bytes_per_op"] = ratio(rt.AllocBytes, float64(ops))
	L["allocs_per_op"] = ratio(rt.AllocObjects, float64(ops))
	note("runtime: %.3f of %.3f cpu-s in GC, %.0f bytes in %.0f allocations over %d ops", rt.GCCPU, rt.TotalCPU, rt.AllocBytes, rt.AllocObjects, ops)

	tot := map[string]int64{}
	var self, reqs int64
	for _, l := range tph.logs {
		for k, v := range l.spans.totals {
			tot[k] += v
		}
		self += l.spans.selfDB
		reqs += l.spans.reqs
	}
	per := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += tot[n]
		}
		return ratio(float64(ns)/1e6, float64(reqs))
	}
	L["prepare.ms"] = per("db.prepare")
	L["plan.ms"] = per("engine.plan")
	L["probe.ms"] = per("engine.probe", "engine.relprobe")
	L["eval.ms"] = per("engine.eval", "engine.scan")
	L["merge.ms"] = per("engine.merge")
	L["render.ms"] = per("result.rows")
	L["engine.untraced_ms"] = ratio(float64(self)/1e6, float64(reqs))
	L["render.bytes_per_query"] = ratio(float64(tph.renderBytes), float64(len(tph.lat)))
	L["trace.overhead_share"] = ratio(quantile(tph.lat, 0.5), quantile(ph.lat, 0.5)) - 1
	note("trace: %d traced requests, traced p50 %.4f ms vs untraced %.4f ms", reqs, quantile(tph.lat, 0.5), quantile(ph.lat, 0.5))
}

// ladder runs the layer ladder on the workload's own documents and the
// distinct queries its timed phases ran.
func (w *workload) ladder(db *xqdb.DB) error {
	defer w.timeStage("ladder", time.Now())
	docs, err := readDir(w.c.dir)
	if err != nil {
		return err
	}
	texts := w.ans.texts()
	qs := make([]query, len(texts))
	for i, t := range texts {
		qs[i] = w.ans.byTxt[t]
	}
	m, notes, err := runLadder(docs, qs, db, w.cfg.seed)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for k, v := range m {
		w.rep.layer[k] = v
	}
	for _, n := range notes {
		w.rep.notef("ladder %s", n)
	}
	return nil
}

// finishTrace checks the traced requests' span trees and writes every
// span out.
func (w *workload) finishTrace() error {
	var logs []*spanLog
	var spans []span
	for _, l := range w.traced.logs {
		logs = append(logs, l.spans)
		spans = append(spans, l.spans.spans...)
	}
	if bad := checkSelfTimes(spans); bad > 0 {
		return fmt.Errorf("trace: %d requests whose child spans do not fit their parent", bad)
	}
	path := filepath.Join(w.cfg.work, fmt.Sprintf("trace-%s-%d.jsonl", w.spec.name, w.cfg.seed))
	n, err := writeSpans(path, logs)
	if err != nil {
		return err
	}
	w.rep.notef("trace: %d spans written to %s", n, path)
	return nil
}

// writer is what a write window needs: one SQL statement at a time,
// returning the rows a DELETE removed.
type writer interface {
	write(sql string) (int, error)
}

// writeLog is what the writes of one phase record.
type writeLog struct {
	insertMS, deleteMS, rangeMS []float64
	loadRate                    []float64 // docs/s per LoadXMLDir batch
	// examined sums the table's row count at each delete, deleted the
	// rows those deletes removed.
	examined, deleted float64
	ops               int64
	failures
	finalRows int
}

func (wl *writeLog) plus(o *writeLog) *writeLog {
	return &writeLog{
		insertMS: append(append([]float64(nil), wl.insertMS...), o.insertMS...),
		deleteMS: append(append([]float64(nil), wl.deleteMS...), o.deleteMS...),
		rangeMS:  append(append([]float64(nil), wl.rangeMS...), o.rangeMS...),
		loadRate: append(append([]float64(nil), wl.loadRate...), o.loadRate...),
		examined: wl.examined + o.examined, deleted: wl.deleted + o.deleted,
		ops: wl.ops + o.ops, failures: failures{wl.n + o.n, cmp.Or(wl.first, o.first)},
		finalRows: o.finalRows,
	}
}

// timeWrite runs one statement and returns its latency in ms and the
// rows it reports.
func (wl *writeLog) timeWrite(w writer, sql string) (float64, int, bool) {
	wl.ops++
	t0 := time.Now()
	n, err := w.write(sql)
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		wl.fail("write: %v", err)
		return ms, 0, false
	}
	return ms, n, true
}

// insertThenDelete inserts n single rows with keys from key, deletes
// the first dels of them one by one and the rest with one key-range
// delete. rows is the table's row count before; it returns the count
// after.
func (wl *writeLog) insertThenDelete(w writer, r *rand.Rand, key, n, dels, rows int) int {
	for i := 0; i < n; i++ {
		ms, _, ok := wl.timeWrite(w, fmt.Sprintf(`insert into orders values (%d, '%s')`, key+i, writerOrder(r, -1)))
		if ok {
			wl.insertMS = append(wl.insertMS, ms)
			rows++
		}
	}
	for i := 0; i < dels; i++ {
		wl.examined += float64(rows)
		ms, got, ok := wl.timeWrite(w, fmt.Sprintf(`delete from orders where ordid = %d`, key+i))
		if !ok {
			continue
		}
		if got != 1 {
			wl.fail("delete of key %d removed %d rows, want 1", key+i, got)
		}
		wl.deleteMS = append(wl.deleteMS, ms)
		wl.deleted += float64(got)
		rows -= got
	}
	if n > dels {
		wl.examined += float64(rows)
		ms, got, ok := wl.timeWrite(w, fmt.Sprintf(`delete from orders where ordid >= %d and ordid < %d`, key+dels, key+n))
		if ok {
			if got != n-dels {
				wl.fail("range delete of keys [%d, %d) removed %d rows, want %d", key+dels, key+n, got, n-dels)
			}
			wl.rangeMS = append(wl.rangeMS, ms)
			wl.deleted += float64(got)
			rows -= got
		}
	}
	wl.finalRows = rows
	return rows
}

// writePhase is one of a read workload's write windows: for d (at
// least one block), blocks of inserts and deletes that each return the
// table to its loaded size. The writes run alone, right after a read
// window. Beside an untimed reader, as the writes once ran, a write
// often waited for the reader's query, whose shards can hold both
// processors for tens of milliseconds, and that wait, not the write,
// set its latency. rows is the table's row count.
func (w *workload) writePhase(wr writer, rows int, d time.Duration) *writeLog {
	wl := &writeLog{}
	start := time.Now()
	for key := probeKeyBase; key == probeKeyBase || time.Since(start) < d; key += blockInserts {
		rows = wl.insertThenDelete(wr, w.rng, key, blockInserts, blockDeletes, rows)
	}
	return wl
}

// writerLoop is ingest_rw's writer, a closed loop of cycles until the
// deadline: load a batch with LoadXMLDir, insert and delete single rows,
// then range-delete the batch by its seq numbers, which returns the
// table to its loaded size.
func writerLoop(deadline time.Time, db *xqdb.DB, c *corpus, writes, rows int, nextKey *int, r *rand.Rand) *writeLog {
	wl := &writeLog{finalRows: rows}
	w := inproc{db: db}
	for k := 0; time.Now().Before(deadline); k++ {
		b := k % len(c.batchDirs)
		wl.ops++
		t0 := time.Now()
		n, err := db.LoadXMLDir("orders", c.batchDirs[b])
		if err != nil {
			wl.fail("load: %v", err)
			return wl
		}
		wl.loadRate = append(wl.loadRate, float64(n)/time.Since(t0).Seconds())
		rows += n
		rows = wl.insertThenDelete(w, r, *nextKey, writes, writes, rows)
		*nextKey += writes
		lo := b * c.batchSize
		wl.examined += float64(rows)
		ms, got, ok := wl.timeWrite(w, fmt.Sprintf(
			`delete from orders where xmlexists('$o/order[@seq >= %d and @seq < %d]' passing orddoc as "o")`, lo, lo+c.batchSize))
		if !ok {
			return wl
		}
		if got != n {
			wl.fail("range delete removed %d rows, want %d", got, n)
		}
		wl.rangeMS = append(wl.rangeMS, ms)
		wl.deleted += float64(got)
		rows -= got
		wl.finalRows = rows
	}
	return wl
}
