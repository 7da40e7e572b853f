package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/btree"
	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xquery"
)

// The layer ladder calls each module's public functions directly, on
// the inputs the workload itself generated: its documents, the probe
// ranges its queries imply, the lists those probes return, and its query
// texts. Every rung reports time per unit of work, so rungs stay
// comparable when corpus sizes change.

// minRungTime is how long a rung repeats a cheap operation, so one
// clock read's granularity does not dominate it.
const minRungTime = 20 * time.Millisecond

// repeat runs f until minRungTime has passed and returns the mean time
// per call of f in nanoseconds.
func repeat(f func()) float64 {
	n := 0
	t0 := time.Now()
	for {
		f()
		n++
		if el := time.Since(t0); el >= minRungTime {
			return float64(el) / float64(n)
		}
	}
}

// docResolver serves db2-fn:xmlcolumn from the ladder's parsed corpus.
type docResolver struct{ docs []*xdm.Node }

func (r docResolver) Collection(string) ([]*xdm.Node, error) { return r.docs, nil }

type ladderIndex struct {
	name, pattern string
	typ           xmlindex.Type
}

// ladderIndexes mirror the XMLPATTERN indexes of the DDL.
var ladderIndexes = []ladderIndex{
	{"li_price", "//lineitem/@price", xmlindex.Double},
	{"prod_id", "//lineitem/product/id", xmlindex.Varchar},
	{"o_custid", "//custid", xmlindex.Double},
}

// maxLadderProbes bounds how many distinct probes the probe rungs
// replay, and maxEvalQueries how many query texts the evaluator rung
// runs over the whole corpus.
const (
	maxLadderProbes = 400
	maxEvalQueries  = 5
	ladderDeletes   = 200
)

// runLadder times every rung and returns the per-layer metrics plus one
// note per rung giving its base (units of work timed).
func runLadder(docs []string, qs []query, db *xqdb.DB, seed int64) (map[string]float64, []string, error) {
	m := map[string]float64{}
	var notes []string
	note := func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) }
	r := rand.New(rand.NewSource(seed))

	// xmlparse: the string parser and the streaming parser.
	var xmlBytes int
	for _, d := range docs {
		xmlBytes += len(d)
	}
	parsed := make([]*xdm.Node, len(docs))
	t0 := time.Now()
	for i, d := range docs {
		n, err := xmlparse.Parse(d)
		if err != nil {
			return nil, nil, fmt.Errorf("xmlparse.Parse: %w", err)
		}
		parsed[i] = n
	}
	m["xmlparse.parse_ns_per_byte"] = float64(time.Since(t0)) / float64(xmlBytes)
	sp := xmlparse.NewStreamParser()
	t0 = time.Now()
	for _, d := range docs {
		if _, err := sp.Parse(strings.NewReader(d), xmlparse.Limits{}); err != nil {
			return nil, nil, fmt.Errorf("StreamParser.Parse: %w", err)
		}
	}
	m["xmlparse.stream_ns_per_byte"] = float64(time.Since(t0)) / float64(xmlBytes)
	note("xmlparse: %d docs, %d bytes per parser", len(docs), xmlBytes)

	// storage: single-row inserts with incremental index maintenance.
	cat := storage.NewCatalog()
	tab, err := cat.CreateTable("orders", []storage.Column{{Name: "ordid", Type: storage.Integer}, {Name: "orddoc", Type: storage.XML}})
	if err != nil {
		return nil, nil, err
	}
	idx := map[string]*xmlindex.Index{}
	for _, li := range ladderIndexes {
		x, err := tab.CreateXMLIndex(li.name, "orddoc", li.pattern, li.typ)
		if err != nil {
			return nil, nil, err
		}
		idx[li.name] = x.Index
	}
	ids := make([]uint32, len(parsed))
	t0 = time.Now()
	for i, n := range parsed {
		id, err := tab.Insert([]storage.Cell{{V: xdm.NewInteger(int64(i))}, {Doc: n}})
		if err != nil {
			return nil, nil, fmt.Errorf("Table.Insert: %w", err)
		}
		ids[i] = id
	}
	m["storage.insert_us"] = float64(time.Since(t0)) / 1e3 / float64(len(parsed))
	note("storage.insert: %d rows into a table with %d XML indexes", len(parsed), len(ladderIndexes))

	// xmlindex: uncached DocList and NodeList over the workload's probes.
	probes := distinctProbes(qs, r)
	var docLists []postings.List
	var nodeLists []postings.NodeList
	var docNS, nodeNS float64
	var docKeys, nodeKeys int
	visited := make([]int, len(probes))
	for i, p := range probes {
		ix := idx[p.index]
		pr := xmlindex.Probe{Range: p.rng, NoCache: true}
		t0 = time.Now()
		dl, v, _, err := ix.DocList(pr)
		docNS += float64(time.Since(t0))
		if err != nil {
			return nil, nil, fmt.Errorf("DocList %s: %w", p.index, err)
		}
		docKeys += v
		visited[i] = v
		docLists = append(docLists, dl)
		t0 = time.Now()
		nl, v, _, err := ix.NodeList(pr)
		nodeNS += float64(time.Since(t0))
		if err != nil {
			return nil, nil, fmt.Errorf("NodeList %s: %w", p.index, err)
		}
		nodeKeys += v
		nodeLists = append(nodeLists, nl)
	}
	m["xmlindex.doclist_ns_per_key"] = ratio(docNS, float64(docKeys))
	m["xmlindex.nodelist_ns_per_key"] = ratio(nodeNS, float64(nodeKeys))
	note("xmlindex: %d distinct probes, %d keys visited per granularity", len(probes), docKeys)

	// btree: ScanVisit over a MergeLoad-built copy of each index's keys,
	// one scan per probe, as long as the probe's own scan.
	trees := map[string][][]byte{}
	built := map[string]*btree.Tree{}
	for _, li := range ladderIndexes {
		ex := idx[li.name].NewExtractor()
		for i, n := range parsed {
			if err := ex.AddDoc(ids[i], n); err != nil {
				return nil, nil, err
			}
		}
		run := ex.Run()
		t, err := btree.MergeLoad(nil, run)
		if err != nil {
			return nil, nil, err
		}
		trees[li.name], built[li.name] = run, t
	}
	var scanNS float64
	var scanKeys int
	for i, p := range probes {
		keys, v := trees[p.index], visited[i]
		if v == 0 || len(keys) == 0 {
			continue
		}
		v = min(v, len(keys))
		s := r.Intn(len(keys) - v + 1)
		var hi []byte
		if s+v < len(keys) {
			hi = keys[s+v]
		}
		var c countVisitor
		t0 = time.Now()
		n, err := built[p.index].ScanVisit(keys[s], hi, &c)
		scanNS += float64(time.Since(t0))
		if err != nil {
			return nil, nil, err
		}
		scanKeys += n
	}
	m["btree.scan_ns_per_key"] = ratio(scanNS, float64(scanKeys))
	note("btree: %d keys scanned", scanKeys)

	// postings: the combinators over the lists the probes returned,
	// paired (or grouped by four) in probe order.
	var pairIDs, unionIDs, nodeRefs int
	for i := 0; i+1 < len(docLists); i += 2 {
		pairIDs += len(docLists[i]) + len(docLists[i+1])
	}
	for i := 0; i+3 < len(docLists); i += 4 {
		for _, l := range docLists[i : i+4] {
			unionIDs += len(l)
		}
	}
	for i := 0; i+1 < len(nodeLists); i += 2 {
		nodeRefs += len(nodeLists[i]) + len(nodeLists[i+1])
	}
	m["postings.intersect_ns_per_id"] = ratio(repeat(func() {
		for i := 0; i+1 < len(docLists); i += 2 {
			postings.Intersect(docLists[i], docLists[i+1])
		}
	}), float64(pairIDs))
	m["postings.union_ns_per_id"] = ratio(repeat(func() {
		for i := 0; i+3 < len(docLists); i += 4 {
			postings.Union(docLists[i : i+4]...)
		}
	}), float64(unionIDs))
	m["postings.intersect_nodes_ns_per_ref"] = ratio(repeat(func() {
		for i := 0; i+1 < len(nodeLists); i += 2 {
			postings.IntersectNodes(nodeLists[i], nodeLists[i+1])
		}
	}), float64(nodeRefs))
	note("postings: intersect %d ids, union %d ids, intersect-nodes %d refs per pass", pairIDs, unionIDs, nodeRefs)

	// synopsis and pattern: the query patterns against the stored paths.
	pats := make([]*pattern.Pattern, len(queryPatterns))
	for i, s := range queryPatterns {
		if pats[i], err = pattern.Parse(s); err != nil {
			return nil, nil, err
		}
	}
	syn := tab.Synopsis("orddoc")
	m["synopsis.match_us"] = repeat(func() {
		for _, p := range pats {
			syn.Match(p)
		}
	}) / 1e3 / float64(len(pats))
	stats, err := db.SynopsisPaths("orders", "orddoc")
	if err != nil {
		return nil, nil, err
	}
	paths := make([][]pattern.Label, len(stats))
	for i, s := range stats {
		paths[i] = labelsOf(s.Path)
	}
	m["pattern.match_ns"] = repeat(func() {
		for _, p := range pats {
			for _, path := range paths {
				p.Match(path)
			}
		}
	}) / float64(len(pats)*len(paths))
	note("synopsis/pattern: %d patterns x %d stored paths", len(pats), len(paths))

	// xquery and core: parse and analyze each distinct XQuery text.
	var texts []string
	for _, q := range qs {
		if !q.sql {
			texts = append(texts, q.text)
		}
	}
	if len(texts) > maxLadderProbes {
		texts = texts[:maxLadderProbes]
	}
	mods := make([]*xquery.Module, len(texts))
	for i, t := range texts {
		if mods[i], err = xquery.Parse(t); err != nil {
			return nil, nil, fmt.Errorf("xquery.Parse: %w", err)
		}
	}
	if len(texts) > 0 {
		m["xquery.parse_us"] = repeat(func() {
			for _, t := range texts {
				xquery.Parse(t)
			}
		}) / 1e3 / float64(len(texts))
		m["core.analyze_us"] = repeat(func() {
			for _, mod := range mods {
				core.AnalyzeXQuery(mod, nil, true, "")
			}
		}) / 1e3 / float64(len(mods))
	}
	note("xquery/core: %d distinct query texts", len(texts))

	// xquery: serial evaluation over the whole parsed corpus.
	res := docResolver{docs: parsed}
	perm := r.Perm(len(mods))
	var evalNS float64
	evals := 0
	for _, i := range perm[:min(len(perm), maxEvalQueries)] {
		t0 = time.Now()
		if _, err := xquery.EvalGuarded(mods[i], nil, res, nil); err != nil {
			return nil, nil, fmt.Errorf("xquery.EvalGuarded: %w", err)
		}
		evalNS += float64(time.Since(t0))
		evals++
	}
	m["xquery.eval_ns_per_doc"] = ratio(evalNS, float64(evals*len(parsed)))
	note("xquery.eval: %d queries x %d docs", evals, len(parsed))

	// storage: deletes by id, index maintenance included.
	nDel := min(ladderDeletes, len(ids))
	t0 = time.Now()
	for _, i := range r.Perm(len(ids))[:nDel] {
		if err := tab.Delete(ids[i]); err != nil {
			return nil, nil, fmt.Errorf("Table.Delete: %w", err)
		}
	}
	m["storage.delete_us"] = ratio(float64(time.Since(t0))/1e3, float64(nDel))
	note("storage.delete: %d rows", nDel)
	return m, notes, nil
}

type countVisitor struct{ n int }

func (c *countVisitor) Visit(_, _ []byte) bool { c.n++; return true }
func (c *countVisitor) Check(int) error        { return nil }

// distinctProbes returns the workload's distinct probes in a seeded
// order, at most maxLadderProbes of them.
func distinctProbes(qs []query, r *rand.Rand) []probe {
	seen := map[string]bool{}
	var out []probe
	for _, q := range qs {
		for _, p := range q.probes {
			k := fmt.Sprintf("%s %v %v %v %v", p.index, p.rng.Lo, p.rng.Hi, p.rng.LoInc, p.rng.HiInc)
			if !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
		}
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > maxLadderProbes {
		out = out[:maxLadderProbes]
	}
	return out
}

// labelsOf turns a rendered synopsis path (/order/lineitem/@price,
// /order/custid/text()) back into the label path patterns match.
func labelsOf(path string) []pattern.Label {
	var out []pattern.Label
	for _, step := range strings.Split(strings.TrimPrefix(path, "/"), "/") {
		switch {
		case step == "text()":
			out = append(out, pattern.Label{Kind: pattern.TextLabel})
		case strings.HasPrefix(step, "@"):
			out = append(out, pattern.Label{Kind: pattern.AttributeLabel, Local: step[1:]})
		default:
			out = append(out, pattern.Label{Kind: pattern.ElementLabel, Local: step})
		}
	}
	return out
}
