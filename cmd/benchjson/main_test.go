package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseTruncated feeds a bench.out cut off mid-run: the trailing
// benchmark line stops mid-number (no ns/op), one line lacks the
// allocs/op column, and the PASS/ok footer is missing entirely. Every
// complete line must parse; the truncated one must be skipped, not
// mis-read.
func TestParseTruncated(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "truncated_bench.out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	benches, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 5 {
		t.Fatalf("want 5 complete benchmarks (truncated 6th skipped), got %d: %+v", len(benches), benches)
	}
	for _, b := range benches {
		if strings.HasSuffix(b.Name, "Prepared_Prepared") {
			t.Errorf("truncated line parsed as a benchmark: %+v", b)
		}
		if b.NsPerOp <= 0 {
			t.Errorf("%s: ns/op not parsed: %+v", b.Name, b)
		}
	}
	// The -benchmem columns are optional per line.
	if benches[0].AllocsPerOp != 12 || benches[0].BytesPerOp != 4096 {
		t.Errorf("benchmem columns not parsed: %+v", benches[0])
	}
	if benches[4].AllocsPerOp != 0 {
		t.Errorf("missing allocs column should stay zero: %+v", benches[4])
	}
}

// TestPairsPartial checks pairing over the truncated fixture: the
// scan/indexed and par=1/par=8 pairs are complete, while the prepared
// variant was lost to truncation, so no unprepared-vs-prepared pair may
// be invented.
func TestPairsPartial(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "truncated_bench.out"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	benches, err := parse(f)
	if err != nil {
		t.Fatal(err)
	}
	ps := pairs(benches)
	kinds := make(map[string]Pair)
	for _, p := range ps {
		kinds[p.Kind] = p
	}
	if p, ok := kinds["scan-vs-indexed"]; !ok || p.Ratio < 49 || p.Ratio > 51 {
		t.Errorf("scan-vs-indexed pair wrong: %+v", kinds)
	}
	if p, ok := kinds["serial-vs-parallel"]; !ok || p.Ratio < 3.9 || p.Ratio > 4.1 {
		t.Errorf("serial-vs-parallel pair wrong: %+v", kinds)
	}
	if _, ok := kinds["unprepared-vs-prepared"]; ok {
		t.Errorf("pair invented from a truncated variant: %+v", kinds)
	}
}

// TestPairsColdLoad: the ingestion pair rule relates the per-row loader
// baseline to the streaming pipeline variant.
func TestPairsColdLoad(t *testing.T) {
	in := strings.NewReader(
		"BenchmarkColdLoad_PerRowLoader-8        10  60000000 ns/op  24000000 B/op  350000 allocs/op\n" +
			"BenchmarkColdLoad_StreamingPipeline-8   10  20000000 ns/op   7000000 B/op   80000 allocs/op\n")
	benches, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	ps := pairs(benches)
	if len(ps) != 1 {
		t.Fatalf("want one pair, got %+v", ps)
	}
	p := ps[0]
	if p.Kind != "perrow-vs-streaming" || p.Ratio < 2.9 || p.Ratio > 3.1 {
		t.Errorf("cold-load pair wrong: %+v", p)
	}
}

// TestAggregateMedian: -agg median collapses repeated runs per name,
// resists one noisy outlier, and preserves first-appearance order so
// pairing still works downstream.
func TestAggregateMedian(t *testing.T) {
	in := strings.NewReader(
		"BenchmarkX/Cold-8   100   1000 ns/op   64 B/op   2 allocs/op\n" +
			"BenchmarkX/Cached-8    100    500 ns/op   32 B/op   1 allocs/op\n" +
			"BenchmarkX/Cold-8   100   9000 ns/op   64 B/op   2 allocs/op\n" + // noisy outlier
			"BenchmarkX/Cached-8    100    510 ns/op   32 B/op   1 allocs/op\n" +
			"BenchmarkX/Cold-8   100   1100 ns/op   64 B/op   2 allocs/op\n" +
			"BenchmarkX/Cached-8    100    490 ns/op   32 B/op   1 allocs/op\n")
	benches, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := aggregate(benches, "median")
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 2 {
		t.Fatalf("want 2 aggregated benchmarks, got %+v", agg)
	}
	if agg[0].Name != "BenchmarkX/Cold" || agg[0].NsPerOp != 1100 {
		t.Errorf("median must shrug off the 9000ns outlier: %+v", agg[0])
	}
	if agg[1].Name != "BenchmarkX/Cached" || agg[1].NsPerOp != 500 {
		t.Errorf("odd-count median wrong: %+v", agg[1])
	}
	if agg[0].BytesPerOp != 64 || agg[0].AllocsPerOp != 2 {
		t.Errorf("benchmem medians wrong: %+v", agg[0])
	}
	ps := pairs(agg)
	if len(ps) != 1 || ps[0].Ratio < 2.1 || ps[0].Ratio > 2.3 {
		t.Errorf("pairing over aggregated medians wrong: %+v", ps)
	}

	// Even-count groups take the midpoint of the middle two.
	even, err := aggregate(benches[:4], "median")
	if err != nil {
		t.Fatal(err)
	}
	if even[0].NsPerOp != 5000 {
		t.Errorf("even-count median = %v, want 5000", even[0].NsPerOp)
	}

	if _, err := aggregate(benches, "mean"); err == nil {
		t.Error("unknown -agg mode must error")
	}
	same, err := aggregate(benches, "none")
	if err != nil || len(same) != len(benches) {
		t.Errorf("none must keep every line: %v %d", err, len(same))
	}
}

// TestRunEmitsEmptyPairsArray: a report with no pairable benchmarks must
// still be valid JSON with "pairs": [], not null, so downstream tooling
// can index into it unconditionally.
func TestRunEmitsEmptyPairsArray(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	in := strings.NewReader("BenchmarkLonely-8    100    1000 ns/op\n")
	if err := run([]string{"-o", out}, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON artifact: %v\n%s", err, data)
	}
	if !strings.Contains(string(data), `"pairs": []`) {
		t.Errorf("pairs should marshal as [], got:\n%s", data)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkLonely" {
		t.Errorf("benchmarks: %+v", rep.Benchmarks)
	}
}

// TestRunRejectsEmptyInput: a bench.out with no benchmark lines at all
// (a run that crashed before the first benchmark) is an explicit error,
// not an empty artifact that would read as "no regressions".
func TestRunRejectsEmptyInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-o", out}, strings.NewReader("goos: linux\nPASS\n"))
	if err == nil || !strings.Contains(err.Error(), "no benchmark lines") {
		t.Fatalf("want no-benchmark-lines error, got %v", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Error("no artifact should be written on empty input")
	}
}
