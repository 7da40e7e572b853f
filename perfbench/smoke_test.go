package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets http_serve start this test binary as its server process.
func TestMain(m *testing.M) {
	if os.Getenv(roleEnv) == "serve" {
		if err := serveMain(os.Args[1:]); err != nil {
			os.Stderr.WriteString("perfbench serve: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// lastLine decodes the result line the benchmark prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// benchmarkFile is BENCHMARK.json's metric lists.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs all four workloads on tiny corpora: every answer check
// must pass, and every metric BENCHMARK.json names must be printed, with
// its unit, for every workload.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-smoke", "-seconds", "0.5", "-workdir", t.TempDir()}, &out)
	r := lastLine(t, out.String())
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Fatalf("smoke run: exit %d, correct %v, failed %d\n%s", code, r.Correct, r.Failed, out.String())
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(specs))
	}
	for i, wl := range bf.Workloads {
		if i < len(specs) && specs[i].name != wl.Name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark %s", i, wl.Name, specs[i].name)
		}
		for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
			got, ok := r.Metrics[wl.Name+"."+m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: metric %s (%s) missing or with another unit: %+v", wl.Name, m.Name, m.Unit, got)
			}
		}
	}
	if want := len(bf.Workloads) * (len(bf.EndToEnd) + len(bf.PerLayer)); len(r.Metrics) != want {
		t.Errorf("smoke printed %d metrics, BENCHMARK.json names %d", len(r.Metrics), want)
	}
}

// TestSmokeCorruptAnswerFails proves the answer check bites: one
// corrupted answer must make the run report it and exit non-zero.
func TestSmokeCorruptAnswerFails(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-smoke", "-workload", "indexed_mix", "-corrupt", "-seconds", "0.5", "-workdir", t.TempDir()}, &out)
	r := lastLine(t, out.String())
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Fatalf("a corrupted answer went unnoticed: exit %d, correct %v, failed %d\n%s", code, r.Correct, r.Failed, out.String())
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{0, 10}, {5, 15}}, 15},
		{[][2]int64{{20, 30}, {0, 10}, {2, 4}}, 20},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}
