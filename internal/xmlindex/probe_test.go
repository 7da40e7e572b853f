package xmlindex

import (
	"math"
	"slices"
	"testing"

	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/xdm"
)

// allFFValue is the one value whose order-preserving encoding is all
// 0xff bytes: the positive NaN with every mantissa/exponent bit set.
// encodeFloat flips the sign bit of a positive double, turning
// 0x7fffffffffffffff into 0xffffffffffffffff. (String encodings always
// end in the 0x00 0x00 terminator, so they can never reach this edge.)
func allFFValue() *xdm.Value {
	v := xdm.Value{T: xdm.Double, F: math.Float64frombits(0x7fffffffffffffff)}
	return &v
}

// Regression: an exclusive lower bound at the maximal encodable value has
// no successor — prefixSuccessor returns nil. nil-as-lo means
// "scan from the start", the exact opposite of "nothing is greater", so
// the old code returned every entry in the index. The probe must return
// none.
func TestExclusiveLoAtMaxEncodingReturnsNothing(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="80"/></order>`)

	p := Probe{Range: Range{Lo: allFFValue(), LoInc: false}}
	nodes, visited, cached, err := ix.NodeList(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 0 || visited != 0 || cached {
		t.Fatalf("exclusive > max-encoding must match nothing, got %v (visited %d, cached %v)", nodes, visited, cached)
	}
	docs, visited, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 0 || visited != 0 || cached {
		t.Fatalf("DocList past max encoding = %v (visited %d, cached %v), want empty", docs, visited, cached)
	}
	// The sentinel must not degrade the inclusive form: >= max-encoding
	// scans normally (and here matches nothing real either).
	if _, _, _, err := ix.NodeList(Probe{Range: Range{Lo: allFFValue(), LoInc: true}}); err != nil {
		t.Fatal(err)
	}
}

// oracleCorpus indexes a small corpus with several lineitems per order,
// a non-lineitem price and a deeper path, and returns the documents for
// the brute-force oracle.
func oracleCorpus(t *testing.T, ix *Index) map[uint32]*xdm.Node {
	t.Helper()
	docs := map[uint32]*xdm.Node{}
	for id, src := range map[uint32]string{
		3: `<order><lineitem price="150"/><lineitem price="90"/></order>`,
		1: `<order><lineitem price="110"/><lineitem price="120"/></order>`,
		2: `<order><lineitem price="50"/></order>`,
		7: `<order><other price="150"/></order>`,
		9: `<quote><archive><lineitem price="130"/></archive><lineitem price="20 USD"/></quote>`,
	} {
		docs[id] = insert(t, ix, id, src)
	}
	return docs
}

// oracleProbes covers every probe shape: exclusive and inclusive
// bounds, equality, structural, and a query pattern narrower than the
// index pattern.
var oracleProbes = []Probe{
	{Range: Range{Lo: dbl(100), LoInc: false}},
	{Range: Range{Lo: dbl(40), LoInc: true, Hi: dbl(115), HiInc: true}},
	{Range: Range{Lo: dbl(90), Hi: dbl(130)}},
	{Range: Equality(xdm.NewDouble(150))},
	{},
	{Range: Range{Lo: dbl(100)}, QueryPattern: pattern.MustParse("/order/lineitem/@price")},
	{QueryPattern: pattern.MustParse("//archive/lineitem/@price")},
}

// DocList must return exactly the document set the brute-force oracle
// derives, sorted and distinct, on every probe shape — cold and from the
// cache.
func TestDocListMatchesDocSet(t *testing.T) {
	ix := liPrice(t)
	corpus := oracleCorpus(t, ix)
	for i, p := range oracleProbes {
		want := oracleNodes(t, ix, corpus, p).Docs()
		for _, warm := range []bool{false, true} {
			got, _, cached, err := ix.DocList(p)
			if err != nil {
				t.Fatal(err)
			}
			if cached != warm {
				t.Fatalf("probe %d: cached = %v on the %s run", i, cached, map[bool]string{false: "cold", true: "warm"}[warm])
			}
			if !slices.Equal(got, want) {
				t.Fatalf("probe %d: DocList %v, oracle %v", i, got, want)
			}
		}
	}
}

// The version counter moves only when the entry set changes, so cached
// probes survive inserts of documents the index does not cover.
func TestVersionBumpsOnlyOnEntryChange(t *testing.T) {
	ix := liPrice(t)
	v0 := ix.Version()
	doc := insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	v1 := ix.Version()
	if v1 == v0 {
		t.Fatal("insert with entries must bump the version")
	}
	insert(t, ix, 2, `<order><cancel-date>2001-01-01</cancel-date></order>`) // no price
	if ix.Version() != v1 {
		t.Fatal("insert without matching entries must not bump the version")
	}
	ix.DeleteDoc(1, doc)
	if ix.Version() == v1 {
		t.Fatal("delete with entries must bump the version")
	}
}

func TestProbeCacheHitAndInvalidation(t *testing.T) {
	ix := liPrice(t)
	reg := metrics.NewRegistry()
	ix.Instrument(reg)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="80"/></order>`)

	p := Probe{Range: Range{Lo: dbl(100), LoInc: false}}
	cold, visited, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if cached || visited == 0 {
		t.Fatalf("first probe must scan: cached=%v visited=%d", cached, visited)
	}
	if !ix.Cached(p) {
		t.Fatal("Cached must see the stored result")
	}
	warm, visited, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || visited != 0 {
		t.Fatalf("second probe must hit: cached=%v visited=%d", cached, visited)
	}
	if len(warm) != len(cold) {
		t.Fatalf("cached result differs: %v vs %v", warm, cold)
	}

	// An insert that changes the entry set invalidates the cached probe.
	insert(t, ix, 3, `<order><lineitem price="120"/></order>`)
	if ix.Cached(p) {
		t.Fatal("Cached must report stale after an entry-set change")
	}
	after, _, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-insert probe must rescan")
	}
	if !after.Contains(3) {
		t.Fatalf("rescan missed the new document: %v", after)
	}

	snap := reg.Snapshot()
	if snap.Counters["probecache.hits"] != 1 {
		t.Fatalf("hits = %d, want 1", snap.Counters["probecache.hits"])
	}
	if snap.Counters["probecache.invalidations"] != 1 {
		t.Fatalf("invalidations = %d, want 1", snap.Counters["probecache.invalidations"])
	}
	if snap.Counters["probecache.misses"] != 2 {
		t.Fatalf("misses = %d, want 2 (cold + post-invalidation)", snap.Counters["probecache.misses"])
	}
}

func TestProbeCacheNoCacheBypass(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	p := Probe{Range: Range{Lo: dbl(100), LoInc: false}, NoCache: true}
	for i := 0; i < 2; i++ {
		_, visited, cached, err := ix.DocList(p)
		if err != nil {
			t.Fatal(err)
		}
		if cached || visited == 0 {
			t.Fatalf("run %d: NoCache must always scan (cached=%v visited=%d)", i, cached, visited)
		}
	}
	if ix.cache.len() != 0 {
		t.Fatalf("NoCache populated the cache: %d entries", ix.cache.len())
	}
}

func TestProbeCacheLRUEviction(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	for i := 0; i <= DefaultProbeCacheCap+10; i++ {
		lo := xdm.NewDouble(float64(i))
		if _, _, _, err := ix.DocList(Probe{Range: Range{Lo: &lo, LoInc: true}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.cache.len(); n != DefaultProbeCacheCap {
		t.Fatalf("cache holds %d entries, want the cap %d", n, DefaultProbeCacheCap)
	}
}

// The capacity knob bounds the LRU, and shrinking it below the live
// entry count evicts cold-end entries immediately.
func TestProbeCacheConfiguredCapacity(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	if got := ix.ProbeCacheCapacity(); got != DefaultProbeCacheCap {
		t.Fatalf("default capacity = %d, want %d", got, DefaultProbeCacheCap)
	}
	ix.SetProbeCacheCapacity(3)
	if got := ix.ProbeCacheCapacity(); got != 3 {
		t.Fatalf("capacity = %d, want 3", got)
	}
	probe := func(i int) Probe {
		lo := xdm.NewDouble(float64(i))
		return Probe{Range: Range{Lo: &lo, LoInc: true}}
	}
	for i := 0; i < 10; i++ {
		if _, _, _, err := ix.DocList(probe(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.cache.len(); n != 3 {
		t.Fatalf("cache holds %d entries, want the configured cap 3", n)
	}
	// The most recent probes survive; the cold end is gone.
	if !ix.Cached(probe(9)) || ix.Cached(probe(0)) {
		t.Fatal("eviction must drop the cold end and keep the hot end")
	}
	// Shrinking below the live count evicts immediately.
	ix.SetProbeCacheCapacity(1)
	if n := ix.cache.len(); n != 1 {
		t.Fatalf("cache holds %d entries after shrink, want 1", n)
	}
	// n <= 0 restores the default.
	ix.SetProbeCacheCapacity(0)
	if got := ix.ProbeCacheCapacity(); got != DefaultProbeCacheCap {
		t.Fatalf("capacity after reset = %d, want %d", got, DefaultProbeCacheCap)
	}
}

// Distinct bounds must never collide to one cache key: the key uses
// length-prefixed bound encodings and the query-pattern source.
func TestProbeKeyDistinguishesBounds(t *testing.T) {
	keys := map[string]bool{
		probeKey([]byte{1, 2}, []byte{3}, nil):                     true,
		probeKey([]byte{1}, []byte{2, 3}, nil):                     true,
		probeKey([]byte{1, 2, 3}, nil, nil):                        true,
		probeKey(nil, []byte{1, 2, 3}, nil):                        true,
		probeKey(nil, nil, nil):                                    true,
		probeKey(nil, nil, pattern.MustParse("//lineitem/@price")): true,
		probeKey(nil, nil, pattern.MustParse("/order/lineitem")):   true,
	}
	if len(keys) != 7 {
		t.Fatalf("probe keys collided: %d distinct of 7", len(keys))
	}
}

// A cached list is shared between the cache and callers; combining ops
// must not mutate it (postings ops are copy-on-write by contract).
func TestCachedListSurvivesCombination(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="120"/></order>`)
	p := Probe{Range: Range{Lo: dbl(100), LoInc: false}}
	first, _, _, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = postings.Intersect(first, postings.List{1})
	_ = postings.Union(first, postings.List{9})
	again, _, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || len(again) != 2 || again[0] != 1 || again[1] != 2 {
		t.Fatalf("cached list corrupted: %v (cached=%v)", again, cached)
	}
}

// NodeList must return exactly the (docID, ordinal) references of the
// index entries a brute-force scan of the documents finds, on every
// probe shape.
func TestNodeListMatchesScanEntries(t *testing.T) {
	ix := liPrice(t)
	corpus := oracleCorpus(t, ix)
	for i, p := range oracleProbes {
		p.NoCache = true
		nodes, _, cached, err := ix.NodeList(p)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("probe %d: NoCache NodeList reported a cache hit", i)
		}
		if want := oracleNodes(t, ix, corpus, p); !slices.Equal(nodes, want) {
			t.Fatalf("probe %d: NodeList %v, oracle %v", i, nodes, want)
		}
	}
}

// DocList and NodeList share one cache entry per (bounds, pattern):
// whichever runs first populates it, the other is served from it, and an
// entry-set change invalidates it for both.
func TestProbeCacheSharedByDocListAndNodeList(t *testing.T) {
	ix := liPrice(t)
	reg := metrics.NewRegistry()
	ix.Instrument(reg)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="120"/><lineitem price="80"/></order>`)

	p := Probe{Range: Range{Lo: dbl(100), LoInc: false}}
	docs, visited, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if cached || visited == 0 || !slices.Equal(docs, postings.List{1, 2}) {
		t.Fatalf("cold DocList = %v (cached=%v visited=%d), want [1 2] scanned", docs, cached, visited)
	}
	nodes, visited, cached, err := ix.NodeList(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || visited != 0 || len(nodes) != 2 {
		t.Fatalf("NodeList after DocList = %v (cached=%v visited=%d), want 2 refs from the cache", nodes, cached, visited)
	}
	if got := reg.Snapshot().Gauges["probecache.entries"]; got != 1 {
		t.Fatalf("probecache.entries = %d, want 1", got)
	}
	insert(t, ix, 3, `<order><lineitem price="130"/></order>`)
	if ix.Cached(p) {
		t.Fatal("entry must report stale after an entry-set change")
	}
	after, _, cached, err := ix.NodeList(p)
	if err != nil {
		t.Fatal(err)
	}
	if cached || len(after) != 3 {
		t.Fatalf("post-insert NodeList = %v (cached=%v), want 3 refs rescanned", after, cached)
	}
	if docs, _, cached, _ := ix.DocList(p); !cached || !slices.Equal(docs, postings.List{1, 2, 3}) {
		t.Fatalf("DocList after the rescan = %v (cached=%v), want [1 2 3] from the cache", docs, cached)
	}
}
