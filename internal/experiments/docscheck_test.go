//go:build docscheck

package experiments

import (
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestDocsMatchRender is `make docscheck`: every
// `go run ./cmd/fvbench -n N <name>` line that opens a paragraph of
// EXPERIMENTS.md is rerun through the index at seed 1 and n = N. The
// next fenced block in its section must equal the entry's Render byte
// for byte; a section that keeps a paper-vs-measured markdown table
// instead (Table I, Fig. 3) must agree with the render in every
// measured cell, matched by row label and column header. Sections at
// the same n share one sweep.
func TestDocsMatchRender(t *testing.T) {
	lines := strings.Split(readRepoFile(t, "EXPERIMENTS.md"), "\n")
	command := regexp.MustCompile("^`go run \\./cmd/fvbench -n (\\d+) ([a-z][a-z0-9-]*)`")
	sweeps := map[int]*Sweep{}
	checked := 0
	for i, line := range lines {
		m := command.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		checked++
		n, _ := strconv.Atoi(m[1])
		e, ok := Lookup(m[2])
		if !ok {
			t.Errorf("EXPERIMENTS.md:%d: fvbench %s is not an index entry", i+1, m[2])
			continue
		}
		p := Params{Seed: 1, Packets: n}
		var sw *Sweep
		if e.Sweep {
			if sweeps[n] == nil {
				var err error
				if sweeps[n], err = RunSweepParallel(p, runtime.GOMAXPROCS(0)); err != nil {
					t.Fatal(err)
				}
			}
			sw = sweeps[n]
		}
		r, _, err := e.Run(p, sw)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		render := r.Render()
		block, table := followingBlock(lines[i+1:])
		switch {
		case block != "":
			if block != render {
				t.Errorf("EXPERIMENTS.md:%d: the block after `fvbench -n %d %s` differs from the render:\n%s", i+1, n, e.Name, render)
			}
		case table != nil:
			checkMeasuredCells(t, i+1, table, render)
		default:
			t.Errorf("EXPERIMENTS.md:%d: no fenced block or table follows", i+1)
		}
	}
	if checked == 0 {
		t.Fatal("EXPERIMENTS.md has no fvbench command lines")
	}
}

// followingBlock returns the first fenced block, or else the first
// markdown table, in the section that follows a command line.
func followingBlock(lines []string) (block string, table []string) {
	for i := 0; i < len(lines) && !strings.HasPrefix(lines[i], "## "); i++ {
		switch {
		case strings.HasPrefix(lines[i], "```"):
			var b strings.Builder
			for _, l := range lines[i+1:] {
				if strings.HasPrefix(l, "```") {
					break
				}
				b.WriteString(l + "\n")
			}
			return b.String(), nil
		case strings.HasPrefix(lines[i], "|"):
			for _, l := range lines[i:] {
				if !strings.HasPrefix(l, "|") {
					break
				}
				table = append(table, l)
			}
			return "", table
		}
	}
	return "", nil
}

// checkMeasuredCells compares a markdown table's measured cells with a
// rendered perf.Table. A second header row marks the measured columns
// "meas."; without one every column is measured. A blank header cell
// continues the column group on its left.
func checkMeasuredCells(t *testing.T, lineNo int, table []string, render string) {
	t.Helper()
	cells := func(row string) []string {
		c := strings.Split(strings.Trim(row, "|"), "|")
		for i := range c {
			c[i] = strings.TrimSpace(c[i])
		}
		return c
	}
	columns := regexp.MustCompile(`\s{2,}`)
	rendered := strings.Split(strings.TrimRight(render, "\n"), "\n")
	col := map[string]int{}
	for i, h := range columns.Split(strings.TrimSpace(rendered[1]), -1) {
		col[h] = i
	}
	rows := map[string][]string{}
	for _, l := range rendered[3:] {
		r := columns.Split(strings.TrimSpace(l), -1)
		rows[r[0]] = r
	}

	header := cells(table[0])
	for j := 1; j < len(header); j++ {
		if header[j] == "" {
			header[j] = header[j-1]
		}
	}
	body := table[2:]
	var measured []string
	if len(body) > 0 && strings.Contains(body[0], "meas.") {
		measured, body = cells(body[0]), body[1:]
	}
	for _, row := range body {
		c := cells(row)
		want, ok := rows[c[0]]
		if !ok {
			t.Errorf("EXPERIMENTS.md:%d: row %q is not in the render", lineNo, c[0])
			continue
		}
		for j := 1; j < len(c) && j < len(header); j++ {
			if measured != nil && measured[j] != "meas." {
				continue
			}
			k, ok := col[header[j]]
			switch {
			case !ok:
				t.Errorf("EXPERIMENTS.md:%d: column %q is not in the render", lineNo, header[j])
			case c[j] != want[k]:
				t.Errorf("EXPERIMENTS.md:%d: %s %s reads %s, the render %s", lineNo, c[0], header[j], c[j], want[k])
			}
		}
	}
}
