package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// The corpus is the paper's order shape: one <order> per file, with a
// customer id, one to three line items, each with a price attribute, a
// quantity attribute and a product id. The benchmark generates it itself
// from the seed, so later changes to the repository's own generators do
// not change what the benchmark measures.
const (
	custIDs    = 1000 // reader point queries draw customer ids below this
	productIDs = 500  // reader product queries draw ids below this
	// qualifyingShare is the share of orders holding a line item priced
	// above 100, the band every reader range predicate falls in.
	qualifyingShare = 0.05
)

// readerOrder renders one order that the reader queries can match.
func readerOrder(r *rand.Rand) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<order date="2002-%02d-%02d"><custid>%d</custid>`, 1+r.Intn(12), 1+r.Intn(28), r.Intn(custIDs))
	qualifies := r.Float64() < qualifyingShare
	items := 1 + r.Intn(3)
	hit := r.Intn(items)
	for j := 0; j < items; j++ {
		price := 1 + r.Float64()*98
		if qualifies && j == hit {
			price = 101 + r.Float64()*100
		}
		fmt.Fprintf(&b, `<lineitem price="%.2f" quantity="%d"><product><id>%d</id></product></lineitem>`,
			price, 1+r.Intn(9), r.Intn(productIDs))
	}
	b.WriteString(`</order>`)
	return b.String()
}

// writerOrder renders an order the writer adds and later removes. Its
// customer ids, product ids and prices lie outside every range the
// reader queries probe, so concurrent writes never change a reader's
// answer. seq >= 0 tags the order with a sequence number, the key the
// range delete removes batches by.
func writerOrder(r *rand.Rand, seq int) string {
	var b strings.Builder
	b.WriteString(`<order`)
	if seq >= 0 {
		fmt.Fprintf(&b, ` seq="%d"`, seq)
	}
	fmt.Fprintf(&b, ` date="2003-%02d-%02d"><custid>%d</custid>`, 1+r.Intn(12), 1+r.Intn(28), custIDs+r.Intn(custIDs))
	items := 1 + r.Intn(3)
	for j := 0; j < items; j++ {
		fmt.Fprintf(&b, `<lineitem price="%.2f" quantity="%d"><product><id>%d</id></product></lineitem>`,
			1+r.Float64()*98, 1+r.Intn(9), productIDs+r.Intn(productIDs))
	}
	b.WriteString(`</order>`)
	return b.String()
}

// writeDir writes one document per file, named so that directory order
// is generation order, and returns the total XML bytes.
func writeDir(dir string, docs []string) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for i, d := range docs {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("o%07d.xml", i)), []byte(d), 0o644); err != nil {
			return 0, err
		}
		total += int64(len(d))
	}
	return total, nil
}

// readDir reads back the documents of a directory in file order.
func readDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	docs := make([]string, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".xml") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		docs = append(docs, string(b))
	}
	return docs, nil
}

// corpus is one workload's generated input files.
type corpus struct {
	dir      string // the reader-visible orders, loaded at set-up
	docs     int
	xmlBytes int64
	// batchDirs hold the writer's LoadXMLDir batches (ingest_rw only);
	// batch k carries seq numbers [k*batchSize, (k+1)*batchSize).
	batchDirs []string
	batchSize int
}

// batchPool is how many distinct writer batches ingest_rw rotates
// through; one batch is live in the table at a time.
const batchPool = 4

func makeCorpus(root string, r *rand.Rand, orders, batchSize int) (*corpus, error) {
	c := &corpus{dir: filepath.Join(root, "orders"), docs: orders, batchSize: batchSize}
	docs := make([]string, orders)
	for i := range docs {
		docs[i] = readerOrder(r)
	}
	n, err := writeDir(c.dir, docs)
	if err != nil {
		return nil, err
	}
	c.xmlBytes = n
	if batchSize == 0 {
		return c, nil
	}
	for k := 0; k < batchPool; k++ {
		batch := make([]string, batchSize)
		for i := range batch {
			batch[i] = writerOrder(r, k*batchSize+i)
		}
		dir := filepath.Join(root, fmt.Sprintf("batch%d", k))
		if _, err := writeDir(dir, batch); err != nil {
			return nil, err
		}
		c.batchDirs = append(c.batchDirs, dir)
	}
	return c, nil
}
