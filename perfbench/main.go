// Command perfbench is xqdb's benchmark. It generates a seeded order
// corpus, builds the database from it through the public API (or, for
// http_serve, through the repository's HTTP server in a second process),
// drives one named workload for a fixed time, checks every answer, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}.
//
//	go run . -workload indexed_mix -seed 1 -seconds 20 -trace 0
//
// -trace 0 reports the end-to-end metrics; -trace 1 runs the workload
// half untraced and half with tracing on and reports the per-layer
// metrics: engine spans, counter ratios, runtime counters and the layer
// ladder. -smoke runs all four workloads on tiny corpora, checks their
// answers and prints every metric name. Run it from the repository
// root; inputs, spans and the build live under .bench_build/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the database sees; every workload
// reports all of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p99_ms", "ms"},
	{"query_throughput_qps", "1/s"},
	{"heap_bytes_per_xml_byte", "ratio"},
	{"load_docs_per_s", "1/s"},
	{"insert_p50_ms", "ms"},
	{"delete_p50_ms", "ms"},
}

// perLayer are the traced run's metrics, one or more per module. A
// layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"plan.ms", "ms"},
	{"prepare.ms", "ms"},
	{"plancache.hit_ratio", "ratio"},
	{"plancache.stale_share", "ratio"},
	{"xquery.parse_us", "us"},
	{"core.analyze_us", "us"},
	{"probe.ms", "ms"},
	{"probecache.hit_ratio", "ratio"},
	{"probecache.invalidations_per_write", "ratio"},
	{"probe.keys_per_query", "count"},
	{"xmlindex.doclist_ns_per_key", "ns"},
	{"xmlindex.nodelist_ns_per_key", "ns"},
	{"btree.keys_per_scan", "count"},
	{"btree.scan_ns_per_key", "ns"},
	{"postings.intersect_ns_per_id", "ns"},
	{"postings.union_ns_per_id", "ns"},
	{"postings.intersect_nodes_ns_per_ref", "ns"},
	{"synopsis.match_us", "us"},
	{"synopsis.skip_share", "ratio"},
	{"pattern.match_ns", "ns"},
	{"engine.untraced_ms", "ms"},
	{"engine.nodes_seeded_per_query", "count"},
	{"engine.index_only_share", "ratio"},
	{"prefilter.survival_ratio", "ratio"},
	{"merge.ms", "ms"},
	{"exec.shards_per_query", "count"},
	{"eval.ms", "ms"},
	{"xquery.eval_ns_per_doc", "ns"},
	{"render.ms", "ms"},
	{"render.bytes_per_query", "bytes"},
	{"xmlparse.parse_ns_per_byte", "ns"},
	{"xmlparse.stream_ns_per_byte", "ns"},
	{"ingest.parse_ns_per_doc", "ns"},
	{"ingest.index_ns_per_doc", "ns"},
	{"storage.insert_us", "us"},
	{"storage.delete_us", "us"},
	{"sqlxml.delete_rows_examined_per_row", "ratio"},
	{"http.overhead_ms", "ms"},
	{"admission.wait_ms", "ms"},
	{"admission.shed_share", "ratio"},
	{"generator_lag_ms", "ms"},
	{"gc.cpu_share", "ratio"},
	{"alloc_bytes_per_op", "bytes"},
	{"allocs_per_op", "count"},
	{"trace.overhead_share", "ratio"},
}

// spec sizes one workload.
type spec struct {
	name   string
	about  string
	orders int
	// setups is how many set-ups ingest_rw times before its timed
	// phase. The read workloads time one, which they keep, and then this
	// many more after each round's write window, so their set-up
	// samples, like their reads, span the whole run.
	setups  int
	clients int
	// rate is http_serve's fixed send rate (requests/s); 0 means a
	// closed loop.
	rate float64
	// writes is how many single rows ingest_rw's writer inserts and
	// deletes per cycle.
	writes int
	// batch is ingest_rw's LoadXMLDir batch size.
	batch  int
	checks int // distinct query texts the answer check verifies
	stream func(seed int64) stream
}

func indexed(seed int64) stream  { return newIndexedStream(seed) }
func scanning(seed int64) stream { return newScanStream(seed) }

var specs = []spec{
	{name: "indexed_mix", orders: 10000, setups: 1, clients: 2, checks: 20, stream: indexed,
		about: "in-process closed loop, 2 clients; index-eligible shapes over skewed constants"},
	{name: "scan_heavy", orders: 1000, setups: 2, clients: 2, checks: 20, stream: scanning,
		about: "in-process closed loop, 2 clients; pitfall queries no index may serve"},
	{name: "ingest_rw", orders: 5000, setups: 5, clients: 1, writes: 20, batch: 500, checks: 20, stream: indexed,
		about: "in-process, 1 closed-loop writer (load, inserts, deletes, range delete) beside 1 indexed_mix reader"},
	{name: "http_serve", orders: 10000, setups: 1, clients: 2, rate: 60, checks: 20, stream: indexed,
		about: "indexed_mix stream as POST /query over loopback, open loop at a fixed rate on 2 connections"},
}

// smokeSpec shrinks a spec to a tiny corpus for the smoke mode.
func smokeSpec(s spec) spec {
	s.orders = 300
	s.setups = 1
	s.writes = 3
	if s.batch > 0 {
		s.batch = 20
	}
	return s
}

type config struct {
	seed    int64
	seconds float64
	trace   bool
	corrupt bool
	work    string
}

func main() {
	if os.Getenv(roleEnv) == "serve" {
		if err := serveMain(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the benchmark command: it writes its report and, last, the
// result line to out and returns the exit code.
func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: indexed_mix, scan_heavy, ingest_rw or http_serve")
	seed := fs.Int64("seed", 1, "seed for the corpus and the query streams")
	seconds := fs.Float64("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	smoke := fs.Bool("smoke", false, "run the workload (default: all four) on a tiny corpus and print every metric")
	corrupt := fs.Bool("corrupt", false, "corrupt one checked answer (to prove the answer check fails)")
	work := fs.String("workdir", "", "scratch directory (default $CARGO_TARGET_DIR or .bench_build, under perfbench)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, corrupt: *corrupt, work: *work}
	if cfg.work == "" {
		base := os.Getenv("CARGO_TARGET_DIR")
		if base == "" {
			base = ".bench_build"
		}
		cfg.work = filepath.Join(base, "perfbench")
	}
	var todo []spec
	for _, s := range specs {
		switch {
		case *smoke && (*workload == "" || s.name == *workload):
			todo = append(todo, smokeSpec(s))
		case s.name == *workload:
			todo = append(todo, s)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *smoke {
		cfg.seconds = min(cfg.seconds, 1)
		cfg.trace = true
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, s := range todo {
		rep, err := runWorkload(s, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", s.name, err)
			return 1
		}
		rep.print(out, s, cfg, *smoke)
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		add := func(defs []metricDef, vals map[string]float64) {
			for _, d := range defs {
				name := d.name
				if *smoke {
					name = s.name + "." + name
				}
				res.Metrics[name] = metricValue{Value: finite(vals[d.name]), Unit: d.unit}
			}
		}
		if *smoke || !cfg.trace {
			add(endToEnd, rep.e2e)
		}
		if *smoke || cfg.trace {
			add(perLayer, rep.layer)
		}
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// report is one workload run's outcome.
type report struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	docs              int
	xmlBytes          int64
	samples           int
	notes             []string
	errors            []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds operations to the attempted and failed totals, keeping the
// first few failure messages.
func (r *report) count(attempted int64, f failures) {
	r.attempted += attempted
	r.failed += f.n
	if f.n > 0 && len(r.errors) < 8 {
		r.errors = append(r.errors, f.first)
	}
}

func (r *report) print(w io.Writer, s spec, cfg config, smoke bool) {
	loop := fmt.Sprintf("closed loop, %d clients", s.clients)
	if s.rate > 0 {
		loop = fmt.Sprintf("open loop at %g req/s on %d connections", s.rate, s.clients)
	}
	fmt.Fprintf(w, "workload %s seed %d: %d orders, %d XML bytes, %s\n", s.name, cfg.seed, r.docs, r.xmlBytes, loop)
	fmt.Fprintf(w, "  %s\n", s.about)
	fmt.Fprintf(w, "  attempted %d, failed %d, failed_share %.6f\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	for _, e := range r.errors {
		fmt.Fprintf(w, "  FAILURE %s\n", e)
	}
	show := func(defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			fmt.Fprintf(w, "  %-38s %14.6g %s\n", d.name, vals[d.name], d.unit)
		}
	}
	if smoke || !cfg.trace {
		fmt.Fprintf(w, "  end-to-end (untraced, %d query samples):\n", r.samples)
		show(endToEnd, r.e2e)
	}
	if smoke || cfg.trace {
		fmt.Fprintln(w, "  per-layer:")
		show(perLayer, r.layer)
	}
	keys := append([]string(nil), r.notes...)
	sort.Strings(keys)
	for _, n := range keys {
		fmt.Fprintf(w, "  base: %s\n", n)
	}
}

// writeLen is how long a read workload's write windows run in all: a
// tenth of the timed phase.
func writeLen(cfg config) time.Duration {
	return time.Duration(cfg.seconds * float64(time.Second) / 10)
}

// phaseLen splits the timed phase: a traced run spends half untraced
// (for trace.overhead_share) and half traced.
func phaseLen(cfg config) (untraced, traced time.Duration) {
	d := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return d / 2, d / 2
	}
	return d, 0
}
