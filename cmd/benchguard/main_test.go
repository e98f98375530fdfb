package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// guard writes one baseline file and one bench output into a fresh
// directory and runs the guard over them at the default threshold.
func guard(t *testing.T, baselines, benchOut string) error {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_test.json"), []byte(baselines), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(out, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	return run(1.5, filepath.Join(dir, "BENCH_*.json"), []string{out})
}

func wantFailure(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil {
		t.Fatalf("guard passed, want a failure mentioning %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("guard error %q does not mention %q", err, substr)
	}
}

func TestBaselineRegressionPastThreshold(t *testing.T) {
	const base = `{"benchmarks": [{"name": "BenchmarkAsk", "ns_per_op": 1000}]}`
	if err := guard(t, base, "BenchmarkAsk-2   100   1400 ns/op\n"); err != nil {
		t.Fatalf("1.4x of baseline under a 1.5x threshold: %v", err)
	}
	wantFailure(t, guard(t, base, "BenchmarkAsk-2   100   1600 ns/op\n"), "BenchmarkAsk: 1600 ns/op vs baseline 1000")
}

func TestRatioGate(t *testing.T) {
	const base = `{
  "benchmarks": [{"name": "BenchmarkAsk/traced", "ns_per_op": 1000}],
  "ratios": [{"name": "BenchmarkAsk/sampled", "other": "BenchmarkAsk/traced", "max_ratio": 1.05}]
}`
	pass := "BenchmarkAsk/traced-2    100   1000 ns/op\nBenchmarkAsk/sampled-2   100   1040 ns/op\n"
	if err := guard(t, base, pass); err != nil {
		t.Fatalf("ratio 1.04 under max 1.05: %v", err)
	}
	fail := "BenchmarkAsk/traced-2    100   1000 ns/op\nBenchmarkAsk/sampled-2   100   1100 ns/op\n"
	wantFailure(t, guard(t, base, fail), "1.100x of BenchmarkAsk/traced")
}

func TestRatioGateMissingMeasurement(t *testing.T) {
	const base = `{
  "benchmarks": [{"name": "BenchmarkAsk/traced", "ns_per_op": 1000}],
  "ratios": [{"name": "BenchmarkAsk/sampled", "other": "BenchmarkAsk/traced", "max_ratio": 1.05}]
}`
	wantFailure(t, guard(t, base, "BenchmarkAsk/traced-2   100   1000 ns/op\n"),
		"missing measurement for the ratio gate")
}

func TestMinAcrossReps(t *testing.T) {
	// Only the fastest of the -count reps counts: the slow reps alone
	// would fail the 1.5x threshold.
	const base = `{"benchmarks": [{"name": "BenchmarkAsk", "ns_per_op": 1000}]}`
	out := "BenchmarkAsk-2   100   3000 ns/op\n" +
		"BenchmarkAsk-2   100   1100 ns/op\n" +
		"BenchmarkAsk-2   100   2500 ns/op\n"
	if err := guard(t, base, out); err != nil {
		t.Fatalf("min rep 1100 ns/op is 1.1x of baseline: %v", err)
	}
	measured := make(map[string]float64)
	path := filepath.Join(t.TempDir(), "bench.out")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := readBenchOutput(path, measured); err != nil {
		t.Fatal(err)
	}
	if got := measured["BenchmarkAsk"]; got != 1100 {
		t.Fatalf("measured BenchmarkAsk = %v, want the min rep 1100", got)
	}
}

func TestProcSuffixStripped(t *testing.T) {
	// Baselines carry no -N suffix; measurements from any GOMAXPROCS
	// (or from a single-proc run, which has none) must match them.
	const base = `{"benchmarks": [
  {"name": "BenchmarkEvalStageScale/1M", "ns_per_op": 1000},
  {"name": "BenchmarkXMLLoad", "ns_per_op": 1000}
]}`
	out := "BenchmarkEvalStageScale/1M-16   10   900 ns/op   12 B/op\n" +
		"BenchmarkXMLLoad   10   950 ns/op\n"
	if err := guard(t, base, out); err != nil {
		t.Fatalf("suffixed and unsuffixed names should both match: %v", err)
	}
	wantFailure(t, guard(t, base, "BenchmarkEvalStageScale/1M-16   10   900 ns/op\n"),
		"BenchmarkXMLLoad: no measurement")
}
