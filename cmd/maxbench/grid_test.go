package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"maxelerator/internal/benchgrid"
	"maxelerator/internal/protocol"
)

func TestParseGridFlagHelpers(t *testing.T) {
	ots, err := parseOTModes("per-round, batched")
	if err != nil || len(ots) != 2 || ots[1] != protocol.OTBatched {
		t.Fatalf("ots = %v, %v", ots, err)
	}
	for _, bad := range []string{"warp-speed", "correlated"} {
		if _, err := parseOTModes(bad); err == nil {
			t.Fatalf("OT mode %q accepted", bad)
		}
	}
	if _, err := parseOTModes(""); err == nil {
		t.Fatal("empty OT list accepted")
	}
	sizes, err := parseSizes("4x4, 16x8")
	if err != nil || len(sizes) != 2 || sizes[1] != [2]int{16, 8} {
		t.Fatalf("sizes = %v, %v", sizes, err)
	}
	for _, bad := range []string{"4", "0x4", "4x-1", "axb", ""} {
		if _, err := parseSizes(bad); err == nil {
			t.Fatalf("size %q accepted", bad)
		}
	}
	widths, err := parseWidths("8, 16")
	if err != nil || len(widths) != 2 || widths[1] != 16 {
		t.Fatalf("widths = %v, %v", widths, err)
	}
	for _, bad := range []string{"0", "-8", "x", ""} {
		if _, err := parseWidths(bad); err == nil {
			t.Fatalf("width %q accepted", bad)
		}
	}
}

// TestRunGridEmitsSchemaValidJSON runs the smallest real sweep and
// checks the artifact parses under the benchgrid schema with every
// expected cell present and populated.
func TestRunGridEmitsSchemaValidJSON(t *testing.T) {
	out, data, msg := testOutput(true)
	gc := gridConfig{
		ots:      []protocol.OTMode{protocol.OTPerRound, protocol.OTBatched},
		sizes:    [][2]int{{2, 2}},
		widths:   []int{8},
		requests: 2,
	}
	if err := runGrid(gc, out); err != nil {
		t.Fatal(err)
	}
	g, err := benchgrid.Decode(data)
	if err != nil {
		t.Fatalf("grid artifact rejected by schema: %v", err)
	}
	// 2 OT modes × 1 size × 1 width × {inline, warm} = 4 cells.
	if len(g.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(g.Cells))
	}
	for _, c := range g.Cells {
		if c.P50Ms <= 0 || c.Requests != 2 {
			t.Fatalf("cell %s not measured: %+v", c.Key(), c)
		}
		if c.TablesPerSec <= 0 {
			t.Fatalf("cell %s has no table throughput: %+v", c.Key(), c)
		}
		if c.BytesPerOp == 0 || c.AllocsPerOp == 0 {
			t.Fatalf("cell %s has no allocation accounting: %+v", c.Key(), c)
		}
	}
	if _, ok := g.Cell("ot=batched/2x2/b=8/precompute=true"); !ok {
		t.Fatal("warm batched cell missing")
	}
	if g.Env.GoVersion == "" {
		t.Fatal("environment not stamped")
	}
	if !strings.Contains(msg.String(), "cell 1/4") || !strings.Contains(msg.String(), "cell 4/4") {
		t.Fatalf("progress missing cell counters:\n%s", msg.String())
	}
}

func TestRunGridHumanTable(t *testing.T) {
	out, data, _ := testOutput(false)
	gc := gridConfig{
		ots:      []protocol.OTMode{protocol.OTBatched},
		sizes:    [][2]int{{2, 2}},
		widths:   []int{8},
		requests: 1,
	}
	if err := runGrid(gc, out); err != nil {
		t.Fatal(err)
	}
	s := data.String()
	for _, want := range []string{"tables/s", "bytes/op", "batched", "2x2"} {
		if !strings.Contains(s, want) {
			t.Fatalf("human grid missing %q:\n%s", want, s)
		}
	}
}

func TestRunGridValidates(t *testing.T) {
	out, _, _ := testOutput(true)
	if err := runGrid(gridConfig{requests: 0}, out); err == nil {
		t.Fatal("zero requests accepted")
	}
}

// writeGrid marshals a grid to a temp file and returns the path.
func writeGrid(t *testing.T, dir, name string, g *benchgrid.Grid) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := g.Encode(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func benchCell(warm bool, p50 float64) benchgrid.Cell {
	return benchgrid.Cell{
		OT: "batched", Rows: 4, Cols: 4, Width: 8, Precompute: warm, Requests: 5,
		P50Ms: p50, P95Ms: p50 * 1.2, P99Ms: p50 * 1.4, MeanMs: p50,
		TablesPerSec: 1000, BytesPerOp: 1 << 16, AllocsPerOp: 100,
	}
}

// TestRunCompareVerdicts covers the acceptance contract: a self-compare
// exits clean, a synthetic slowdown returns the non-zero-exit sentinel.
func TestRunCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := benchgrid.New("test")
	base.Cells = []benchgrid.Cell{benchCell(false, 10), benchCell(true, 5)}
	basePath := writeGrid(t, dir, "base.json", base)

	out, data, _ := testOutput(false)
	if err := runCompare(basePath, basePath, benchgrid.DefaultTolerances(), out); err != nil {
		t.Fatalf("self-compare failed: %v", err)
	}
	if !strings.Contains(data.String(), "OK") {
		t.Fatalf("verdict missing OK:\n%s", data.String())
	}

	slow := benchgrid.New("test")
	slow.Cells = []benchgrid.Cell{benchCell(false, 30), benchCell(true, 5)}
	slowPath := writeGrid(t, dir, "slow.json", slow)
	out2, data2, _ := testOutput(false)
	err := runCompare(basePath, slowPath, benchgrid.DefaultTolerances(), out2)
	if err != errRegressions {
		t.Fatalf("slowdown err = %v, want errRegressions", err)
	}
	if !strings.Contains(data2.String(), "p50_ms") {
		t.Fatalf("verdict missing the regressing metric:\n%s", data2.String())
	}
}

func TestRunCompareJSONReport(t *testing.T) {
	dir := t.TempDir()
	base := benchgrid.New("test")
	base.Cells = []benchgrid.Cell{benchCell(false, 10)}
	basePath := writeGrid(t, dir, "base.json", base)
	slow := benchgrid.New("test")
	slow.Cells = []benchgrid.Cell{benchCell(false, 40)}
	slowPath := writeGrid(t, dir, "slow.json", slow)

	out, data, _ := testOutput(true)
	if err := runCompare(basePath, slowPath, benchgrid.DefaultTolerances(), out); err != errRegressions {
		t.Fatalf("err = %v", err)
	}
	var rep compareReport
	if err := json.Unmarshal(data.Bytes(), &rep); err != nil {
		t.Fatalf("compare JSON did not parse: %v\n%s", err, data.String())
	}
	if rep.OK || len(rep.Regressions) == 0 {
		t.Fatalf("report = %+v, want regressions", rep)
	}
}

func TestRunCompareMissingFile(t *testing.T) {
	out, _, _ := testOutput(false)
	if err := runCompare(filepath.Join(t.TempDir(), "nope.json"), "also-nope.json",
		benchgrid.DefaultTolerances(), out); err == nil {
		t.Fatal("missing baseline accepted")
	}
}
