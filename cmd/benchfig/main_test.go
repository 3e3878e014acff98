package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenPath holds benchfig's stdout at the default quick scale and seed 1;
// `make figures` regenerates it.
var goldenPath = filepath.Join("testdata", "figures.golden")

// TestFiguresGolden pins every rendered figure and table: a change that moves
// any number the paper's evaluation reports fails here until the golden is
// regenerated. Wall-clock columns (header containing "runtime") differ from
// run to run, so their value cells are masked on both sides.
func TestFiguresGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(nil, &got, io.Discard); err != nil {
		t.Fatal(err)
	}
	gotLines := maskRuntime(t, got.String())
	wantLines := maskRuntime(t, string(want))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs (run `make figures` if the move is intended):\n got  %q\n want %q",
				goldenPath, i+1, g, w)
		}
	}
}

// maskRuntime splits benchfig's output into lines and replaces every value
// cell of a column whose header contains "runtime" with "*". Each artifact
// renders as "# id — title", "# x = …", a header row and value rows up to a
// blank line; labels and values are left-aligned in fixed-width columns (12
// characters for x, 22 per series), so a header cell's column index follows
// from its offset. It fails the test if a runtime label does not start on a
// column boundary, and if no column was masked, so the mask cannot silently
// stop matching when the layout changes.
func maskRuntime(t *testing.T, out string) []string {
	t.Helper()
	lines := strings.Split(out, "\n")
	masked := 0
	for i := 0; i < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "# x = ") || i+1 >= len(lines) {
			continue
		}
		i++
		header := lines[i]
		var cols []int
		for off := 0; ; {
			j := strings.Index(header[off:], "runtime")
			if j < 0 {
				break
			}
			at := off + j
			col := 0 // the x column, unless the label starts after a pad
			if pad := strings.LastIndex(header[:at], "  "); pad >= 0 {
				start := pad + 2
				if start < 12 || (start-12)%22 != 0 {
					t.Fatalf("runtime label at offset %d of header %q is off the column grid", start, header)
				}
				col = 1 + (start-12)/22
			}
			cols = append(cols, col)
			off = at + len("runtime")
		}
		for ; len(cols) > 0 && i+1 < len(lines) && lines[i+1] != ""; i++ {
			fields := strings.Fields(lines[i+1])
			for _, c := range cols {
				if c >= len(fields) {
					t.Fatalf("row %q has no column %d", lines[i+1], c)
				}
				fields[c] = "*"
				masked++
			}
			lines[i+1] = strings.Join(fields, " ")
		}
	}
	if masked == 0 {
		t.Fatal("no runtime column found to mask")
	}
	return lines
}

// TestBadInvocations checks that run reports bad flags as errors (main
// exits 1 on them) and writes no figures.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "huge"},
		{"-only", "nope"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%q) = nil, want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) wrote %d bytes to stdout", args, stdout.Len())
		}
	}
}
