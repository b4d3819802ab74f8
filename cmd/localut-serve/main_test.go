package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"github.com/ais-snu/localut"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenConfig is the fixed workload behind the -json regression test: a
// small decode-heavy run touching every report section (TTFT/TPOT, KV
// gauge, histogram-free path).
func goldenConfig() localut.ServeConfig {
	return localut.ServeConfig{
		Model: localut.OPT125M, Format: localut.W1A3, Design: localut.DesignLoCaLUT,
		RatePerSec:      40,
		DurationSeconds: 5,
		Scheduler:       localut.SchedulePacked,
		OutTokensMean:   8,
		OutTokensMax:    32,
	}
}

// renderJSON produces exactly what `localut-serve -json` writes: the
// report through an indenting encoder.
func renderJSON(t *testing.T, cfg localut.ServeConfig) []byte {
	t.Helper()
	sys := localut.NewSystem(localut.WithSeed(1))
	rep, err := sys.Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeJSONGolden pins the -json output byte for byte on a fixed
// seed and config. A diff means either the report schema or the
// simulation's numbers changed — both must be deliberate; run
// `go test ./cmd/localut-serve -update` to re-bless.
func TestServeJSONGolden(t *testing.T) {
	got := renderJSON(t, goldenConfig())
	path := filepath.Join("testdata", "serve_opt125m_w1a3.golden.json")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON report drifted from %s (re-bless with -update if intentional)\ngot:\n%s\nwant:\n%s",
			path, got, want)
	}
}

// TestServeJSONGoldenStable guards the golden test itself: two fresh
// systems must render identical bytes, or the golden file would flake.
func TestServeJSONGoldenStable(t *testing.T) {
	a := renderJSON(t, goldenConfig())
	b := renderJSON(t, goldenConfig())
	if !bytes.Equal(a, b) {
		t.Fatal("same config rendered different JSON across runs")
	}
}

// TestParseRates covers the sweep-flag parser's error paths.
func TestParseRates(t *testing.T) {
	if got, err := parseRates("25, 50,100"); err != nil || len(got) != 3 || got[2] != 100 {
		t.Errorf("parseRates = %v, %v", got, err)
	}
	for _, bad := range []string{"", "a", "10,-5", "10,,20", "0"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

// TestReportTableSections sanity-checks the table renderer against a tiny
// run (decode rows must appear for decoder workloads).
func TestReportTableSections(t *testing.T) {
	sys := localut.NewSystem(localut.WithSeed(1))
	cfg := goldenConfig()
	cfg.DurationSeconds = 1
	rep, err := sys.Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reportTable(rep).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, row := range []string{"throughput (req/s)", "ttft p50/p95/p99 (s)", "decode steps", "distinct forward sims"} {
		if !bytes.Contains([]byte(out), []byte(row)) {
			t.Errorf("table missing row %q:\n%s", row, out)
		}
	}
}

// TestAuditServeChecksLedger feeds auditServe reports whose request
// ledger does and does not close: a request that neither completed nor
// was shed must fail the audit, and one the report sheds must not.
func TestAuditServeChecksLedger(t *testing.T) {
	sys := localut.NewSystem(localut.WithSeed(1))
	cfg := goldenConfig()
	cfg.DurationSeconds = 1
	rep, err := sys.Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := auditServe(rep); err != nil {
		t.Fatalf("clean run failed the audit: %v", err)
	}
	leaked := *rep
	leaked.Completed--
	if err := auditServe(&leaked); err == nil {
		t.Errorf("requests %d != completed %d + shed %d passed the audit",
			leaked.Requests, leaked.Completed, leaked.Shed)
	}
	shed := leaked
	shed.Shed++
	if err := auditServe(&shed); err != nil {
		t.Errorf("balanced ledger with one shed failed the audit: %v", err)
	}
}
