package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
)

// ddl is the schema every workload runs on: the order table with the
// paper's three XMLPATTERN value indexes and a relational index on the
// key. Indexes exist before the load, so LoadXMLDir builds them in bulk.
var ddl = []string{
	`create table orders (ordid integer, orddoc xml)`,
	`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`,
	`create index prod_id on orders(orddoc) using xmlpattern '//lineitem/product/id' as varchar`,
	`create index o_custid on orders(orddoc) using xmlpattern '//custid' as double`,
	`create index o_ordid on orders(ordid)`,
}

// probe is one index probe a query's predicate implies: the range an
// index on that path would be scanned with. The layer ladder replays
// these against the workload's own documents.
type probe struct {
	index string // li_price, prod_id or o_custid
	rng   xmlindex.Range
}

// query is one generated statement.
type query struct {
	shape  string
	text   string
	sql    bool
	probes []probe
}

func above(x float64) xmlindex.Range {
	v := xdm.NewDouble(x)
	return xmlindex.Range{Lo: &v}
}

func below(x float64) xmlindex.Range {
	v := xdm.NewDouble(x)
	return xmlindex.Range{Hi: &v}
}

// zipf draws from n values with a skewed popularity: value 0 is the
// most popular and popularity falls with the value. No measured query
// traffic exists for xqdb, so the skew is an assumption: Zipf s = 1.1,
// the nearest to the classic s = 1 that math/rand allows (it needs
// s > 1). The seed decides the order of the draws, not which values
// are popular, so every seed loads the database alike.
type zipf struct{ z *rand.Zipf }

func newZipf(r *rand.Rand, n int) zipf {
	return zipf{rand.NewZipf(r, 1.1, 1, uint64(n-1))}
}

func (z zipf) next() int { return int(z.z.Uint64()) }

// stream yields one client's query sequence.
type stream interface{ next() query }

// shapeCycle deals a stream's shapes in equal shares: each block of
// len(order) queries holds every shape once, in a seeded order, so every
// run sees the same shares.
type shapeCycle struct {
	r     *rand.Rand
	order []int
	next  int
}

func newShapeCycle(r *rand.Rand) shapeCycle {
	order := make([]int, streamShapes)
	for i := range order {
		order[i] = i
	}
	return shapeCycle{r: r, order: order}
}

func (c *shapeCycle) shape() int {
	if c.next == 0 {
		c.r.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
	}
	k := c.order[c.next]
	c.next = (c.next + 1) % len(c.order)
	return k
}

// indexedStream is indexed_mix's query stream: the paper's
// index-eligible shapes, with constants drawn from skewed distributions
// over more distinct values than a 128-entry probe cache holds. No
// measured traffic says how often each shape runs, so the five shapes
// take equal shares.
type indexedStream struct {
	shapes                     shapeCycle
	cust, prod, q1, count, e10 zipf
}

func newIndexedStream(seed int64) *indexedStream {
	r := rand.New(rand.NewSource(seed))
	return &indexedStream{shapes: newShapeCycle(r),
		cust: newZipf(r, custIDs), prod: newZipf(r, productIDs),
		q1: newZipf(r, thresholds), count: newZipf(r, thresholds), e10: newZipf(r, thresholds)}
}

// thresholds is how many price thresholds the range shapes draw from:
// steps of 0.25 down from 200 across the qualifying price band
// (101, 201), over three times what the probe cache holds. Popular
// thresholds select a few line items and the tail hundreds.
const thresholds = 400

func threshold(z zipf) float64 { return 200 - 0.25*float64(z.next()) }

func (s *indexedStream) next() query {
	switch s.shapes.shape() {
	case 0:
		c := s.cust.next()
		v := xdm.NewDouble(float64(c))
		return query{shape: "custid_point",
			text:   fmt.Sprintf(`db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid = %d]`, c),
			probes: []probe{{index: "o_custid", rng: xmlindex.Equality(v)}}}
	case 1:
		id := s.prod.next()
		v := xdm.NewString(fmt.Sprint(id))
		return query{shape: "q27_product",
			text: fmt.Sprintf(`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem `+
				`where $i/product/id/data(.) = '%d' return $i/@quantity`, id),
			probes: []probe{{index: "prod_id", rng: xmlindex.Equality(v)}}}
	case 2:
		x := threshold(s.count)
		return query{shape: "count_index_only",
			text:   fmt.Sprintf(`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > %.2f])`, x),
			probes: []probe{{index: "li_price", rng: above(x)}}}
	case 3:
		x := threshold(s.q1)
		return query{shape: "q1_range",
			text:   fmt.Sprintf(`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > %.2f] return $i`, x),
			probes: []probe{{index: "li_price", rng: above(x)}}}
	default:
		lo := threshold(s.e10)
		hi := 10 * math.Ceil((lo+2)/10)
		// Existential comparisons over several line items cannot pair
		// into one between scan: two probes, intersected (§3.10). The
		// upper bound, whose probe reaches nearly every line item, takes
		// one of eleven values.
		return query{shape: "e10_two_probe",
			text:   fmt.Sprintf(`db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > %.2f and lineitem/@price < %.2f]`, lo, hi),
			probes: []probe{{index: "li_price", rng: above(lo)}, {index: "li_price", rng: below(hi)}}}
	}
}

// scanStream is scan_heavy's query stream: the paper's pitfall shapes
// that no index may serve, so every query walks every document. Their
// probes are the ranges an index would scan were the query eligible.
type scanStream struct {
	r      *rand.Rand
	shapes shapeCycle
}

func newScanStream(seed int64) *scanStream {
	r := rand.New(rand.NewSource(seed))
	return &scanStream{r: r, shapes: newShapeCycle(r)}
}

func (s *scanStream) next() query {
	x := float64(100 + 10*s.r.Intn(10))
	priceProbe := []probe{{index: "li_price", rng: above(x)}}
	switch s.shapes.shape() {
	case 0:
		return query{shape: "q18_let",
			text: fmt.Sprintf(`for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') `+
				`let $item := $doc//lineitem[@price > %g] return <result>{$item}</result>`, x),
			probes: priceProbe}
	case 1:
		return query{shape: "q9_boolean", sql: true,
			text: fmt.Sprintf(`SELECT ordid FROM orders WHERE XMLExists('$order//lineitem/@price > %g' `+
				`passing orddoc as "order")`, x),
			probes: priceProbe}
	case 2:
		return query{shape: "q2_any_attr",
			text:   fmt.Sprintf(`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@* > %g] return $i`, x),
			probes: priceProbe}
	case 3:
		id := s.r.Intn(productIDs)
		v := xdm.NewString(fmt.Sprint(id))
		return query{shape: "q26_view",
			text: fmt.Sprintf(`let $view := (for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem `+
				`return <item>{ $i/@quantity, <pid>{ $i/product/id/data(.) }</pid> }</item>) `+
				`for $j in $view where $j/pid = '%d' return $j/@quantity`, id),
			probes: []probe{{index: "prod_id", rng: xmlindex.Equality(v)}}}
	default:
		return query{shape: "descendant",
			text: fmt.Sprintf(`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@quantity = %d]/product/id`, 1+s.r.Intn(9))}
	}
}

// queryPatterns are the XMLPATTERN forms of the paths the workloads'
// predicates navigate; the synopsis and pattern rungs of the ladder
// match them against the stored paths.
var queryPatterns = []string{
	`//custid`, `/order/custid`, `//lineitem/@price`, `//order/lineitem/@price`,
	`//lineitem/product/id`, `/order/lineitem/product/id`, `//lineitem/@*`, `//lineitem/@quantity`,
}

// streamShapes is how many shapes each stream has.
const streamShapes = 5

// warmup returns one query of each shape of a stream type, with the
// constants seed 0 draws: set-up runs them once, so lazily built state
// exists before anything is timed.
func warmup(newStream func(int64) stream) []query {
	var out []query
	s := newStream(0)
	seen := map[string]bool{}
	for len(seen) < streamShapes {
		if q := s.next(); !seen[q.shape] {
			seen[q.shape] = true
			out = append(out, q)
		}
	}
	return out
}
