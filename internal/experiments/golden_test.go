package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ais-snu/localut/internal/kernels"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// renderGolden is the pinned form of a figure run: the markdown report,
// then every result's Values in sorted key order with exact float text.
func renderGolden(results []*Result) string {
	var sb strings.Builder
	sb.WriteString(ReportMarkdown(results))
	sb.WriteString("\n# Values\n")
	for _, r := range results {
		fmt.Fprintf(&sb, "\n## %s\n", r.ID)
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "- %s = %s\n", k, strconv.FormatFloat(r.Values[k], 'g', -1, 64))
		}
	}
	return sb.String()
}

// TestFiguresCyclesOnlyGolden regenerates all fifteen figures at full
// scale under CyclesOnly and compares them byte for byte with the golden
// file. A diff means a figure's numbers or layout changed; re-bless a
// deliberate change with `go test ./internal/experiments -run
// TestFiguresCyclesOnlyGolden -update`.
func TestFiguresCyclesOnlyGolden(t *testing.T) {
	s := New()
	s.Mode = kernels.CyclesOnly
	results, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(results)
	path := filepath.Join("testdata", "figures_cyclesonly.golden.md")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("figure suite diverges from %s (re-bless with -update if deliberate)\n%s",
			path, firstDiff(string(want), got))
	}
}

// firstDiff reports the first line where two documents differ.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n want %q\n got  %q", i+1, w, g)
		}
	}
	return "documents differ"
}
