package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/xqdb/xqdb"
)

// setupDB builds a database from the generated files: open, DDL, bulk
// load, then one run of each warm-up query. It returns the database,
// the rows loaded and the seconds LoadXMLDir took.
func setupDB(dir string, warm []query) (*xqdb.DB, int, float64, error) {
	db := xqdb.Open()
	for _, s := range ddl {
		if _, _, err := db.ExecSQL(s); err != nil {
			return nil, 0, 0, fmt.Errorf("%s: %w", s, err)
		}
	}
	t0 := time.Now()
	n, err := db.LoadXMLDir("orders", dir)
	if err != nil {
		return nil, 0, 0, err
	}
	load := time.Since(t0).Seconds()
	for _, q := range warm {
		if _, err := execQuery(db, q); err != nil {
			return nil, 0, 0, fmt.Errorf("warm-up %s: %w", q.shape, err)
		}
	}
	return db, n, load, nil
}

// timedSetups builds the database `times` times and keeps the last one.
// It returns each set-up's and each load's seconds, and the live heap
// the kept database holds, measured after a forced GC.
func timedSetups(dir string, times int, warm []query) (db *xqdb.DB, rows int, setupS, loadS []float64, heap float64, err error) {
	for i := 0; i < times; i++ {
		db = nil
		before := liveHeap()
		t0 := time.Now()
		d, n, load, err := setupDB(dir, warm)
		if err != nil {
			return nil, 0, nil, nil, 0, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		loadS = append(loadS, load)
		db, rows = d, n
		heap = liveHeap() - before
	}
	return db, rows, setupS, loadS, heap, nil
}

// extraSetup times one more set-up, discards the database it built and
// collects the garbage, returning the set-up's and the load's seconds.
func extraSetup(dir string, warm []query) (setupS, loadS float64, err error) {
	t0 := time.Now()
	_, _, loadS, err = setupDB(dir, warm)
	setupS = time.Since(t0).Seconds()
	runtime.GC()
	return setupS, loadS, err
}

func liveHeap() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc)
}

// execQuery runs one query the way an application reusing statements
// would: Prepare (served from the plan cache on repeats), then Exec.
func execQuery(db *xqdb.DB, q query) (*xqdb.Result, error) {
	stmt, err := prepare(db, q)
	if err != nil {
		return nil, err
	}
	res, _, err := stmt.Exec()
	return res, err
}

func prepare(db *xqdb.DB, q query) (*xqdb.Stmt, error) {
	if q.sql {
		return db.Prepare(q.text)
	}
	return db.PrepareXQuery(q.text)
}

// inproc drives the database in the benchmark's own process.
type inproc struct{ db *xqdb.DB }

// query runs q and renders its rows, returning the row count and the
// rendered bytes. With a span log it records the request, the Prepare
// and Exec calls (engine spans under Exec) and Result.Rows.
func (c inproc) query(q query, l *spanLog) (int, int, error) {
	if l == nil {
		res, err := execQuery(c.db, q)
		if err != nil {
			return 0, 0, err
		}
		rows := res.Rows()
		return len(rows), renderedBytes(rows), nil
	}
	t0 := time.Now()
	stmt, err := prepare(c.db, q)
	t1 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	res, stats, err := stmt.ExecOpts(xqdb.QueryOptions{Trace: true})
	t2 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	rows := res.Rows()
	t3 := time.Now()
	root := l.request("request", t0, t3)
	l.add("db.prepare", root, t0, t1)
	l.dbCall("stmt.exec", root, t1, t2, stats)
	l.add("result.rows", root, t2, t3)
	return len(rows), renderedBytes(rows), nil
}

// rows runs q and returns its rendered rows.
func (c inproc) rows(q query) ([][]string, error) {
	res, err := execQuery(c.db, q)
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}

// write runs one SQL write unprepared, as a one-shot statement, and
// returns the rows it reports (the rows a DELETE removed).
func (c inproc) write(sql string) (int, error) {
	_, stats, err := c.db.ExecSQL(sql)
	if err != nil {
		return 0, err
	}
	return stats.RowsScanned, nil
}

// reference renders q's answer on the full-scan baseline: no index
// pre-filter, serial execution (Definition 1's Q(D)).
func reference(db *xqdb.DB, q query) ([][]string, error) {
	db.UseIndexes = false
	defer func() { db.UseIndexes = true }()
	opts := xqdb.QueryOptions{Parallelism: 1}
	var res *xqdb.Result
	var err error
	if q.sql {
		res, _, err = db.ExecSQLOpts(q.text, opts)
	} else {
		res, _, err = db.QueryXQueryOpts(q.text, opts)
	}
	if err != nil {
		return nil, err
	}
	return res.Rows(), nil
}

func renderedBytes(rows [][]string) int {
	n := 0
	for _, r := range rows {
		for _, c := range r {
			n += len(c)
		}
	}
	return n
}

func encodeRows(rows [][]string) string {
	if rows == nil {
		rows = [][]string{}
	}
	b, _ := json.Marshal(rows) // [][]string always marshals
	return string(b)
}

// answers records the first row count seen for each query text, so
// every later execution of the text can be held to it.
type answers struct {
	mu    sync.Mutex
	first map[string]int
	byTxt map[string]query
}

func newAnswers() *answers { return &answers{first: map[string]int{}, byTxt: map[string]query{}} }

// observe records q's row count and reports whether it matches the
// first count seen for the same text.
func (a *answers) observe(q query, rows int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n, ok := a.first[q.text]; ok {
		return n == rows
	}
	a.first[q.text] = rows
	a.byTxt[q.text] = q
	return true
}

// texts returns the distinct query texts seen, sorted.
func (a *answers) texts() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.first))
	for t := range a.first {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}
