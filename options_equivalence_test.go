package xqdb

import (
	"fmt"
	"strings"
	"testing"
)

// TestQueryOptionsEquivalenceProperty runs every query with Trace off
// and on — the knobmatrix analyzer requires each public QueryOptions
// boolean here — serial and parallel, first with cold probe caches and
// then warm, over an untyped corpus and again after an annotated
// document joins it, and requires the bytes of the serial full scan.
func TestQueryOptionsEquivalenceProperty(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	for i := 0; i < 40; i++ {
		db.MustExecSQL(fmt.Sprintf(
			`insert into orders values (%d, '<order><custid>%d</custid><lineitem price="%d"/><lineitem price="%d"/></order>')`,
			i, i%7, 40+i*7%200, 10+i*3%150))
	}
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)

	queries := []string{
		// Probe + re-evaluation, index-only aggregate, and a synopsis
		// short-circuit (no <missing> path is stored).
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`,
		`fn:count(db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem/@price[. > 100])`,
		`fn:exists(db2-fn:xmlcolumn("ORDERS.ORDDOC")//missing[@price > 1])`,
	}
	render := func(res *Result) string {
		var b strings.Builder
		for _, row := range res.Rows() {
			b.WriteString(strings.Join(row, "|"))
			b.WriteByte('\n')
		}
		return b.String()
	}
	// A document li_price matches goes in and out again: the index's
	// entry set changes and ends where it began, so every cached probe
	// result is stale and the next probe scans.
	coldCaches := func() {
		db.MustExecSQL(`insert into orders values (999999, '<order><lineitem price="-1"/></order>')`)
		db.MustExecSQL(`delete from orders where ordid = 999999`)
	}
	check := func(variant string) {
		for _, q := range queries {
			db.UseIndexes = false
			base, _, err := db.QueryXQueryOpts(q, QueryOptions{Parallelism: 1})
			db.UseIndexes = true
			if err != nil {
				t.Fatalf("%s full scan: %v", q, err)
			}
			want := render(base)
			for _, trace := range []bool{false, true} {
				for _, par := range []int{1, 4} {
					o := QueryOptions{Trace: trace, Parallelism: par}
					for _, run := range []string{"cold", "warm"} {
						if run == "cold" {
							coldCaches()
						}
						res, stats, err := db.QueryXQueryOpts(q, o)
						if err != nil {
							t.Fatalf("%s (%s) under %+v: %v", q, variant, o, err)
						}
						if got := render(res); got != want {
							t.Fatalf("%s (%s): options %+v (%s cache) changed the result\nwant %q\ngot  %q", q, variant, o, run, want, got)
						}
						if o.Trace && (stats == nil || stats.Trace == nil) {
							t.Fatalf("%s: Trace set but no spans collected", q)
						}
						if run == "cold" && strings.Contains(strings.Join(stats.IndexesUsed, " "), "[cached]") {
							t.Fatalf("%s: cold run served from the probe cache: %v", q, stats.IndexesUsed)
						}
					}
				}
			}
		}
	}
	check("untyped")
	// An annotated document turns index-only answers and node seeding
	// off for the column: the same queries take the document-granular
	// path.
	sch := NewSchema("typed")
	if err := sch.Declare("@price", "double"); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertValidated("orders", 500000, `<order><custid>3</custid><lineitem price="150"/></order>`, sch); err != nil {
		t.Fatal(err)
	}
	check("annotated")
}
