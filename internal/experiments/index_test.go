package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// readRepoFile reads a file by its path from the repository root.
func readRepoFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile("../../" + path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// section returns the text from the first line that starts with start
// up to the next line that starts with end.
func section(t *testing.T, text, start, end string) string {
	t.Helper()
	i := strings.Index(text, "\n"+start)
	if i < 0 {
		t.Fatalf("no %q", start)
	}
	text = text[i+1:]
	if j := strings.Index(text[1:], "\n"+end); j >= 0 {
		text = text[:j+2]
	}
	return text
}

// TestIndexMatchesDocs checks every hand-written experiment list
// against the index: DESIGN §4's table (ID and fvbench name), the
// commands of README's "Reproducing the paper" block, and the
// experiment list in fvbench's package comment.
func TestIndexMatchesDocs(t *testing.T) {
	t.Run("DESIGN", func(t *testing.T) {
		table := section(t, readRepoFile(t, "DESIGN.md"), "## 4.", "## 5.")
		row := regexp.MustCompile("(?m)^\\| (E\\d+) \\|.*`fvbench ([a-z0-9-]+)`")
		var design, indexed []string
		for _, m := range row.FindAllStringSubmatch(table, -1) {
			design = append(design, m[1]+" "+m[2])
		}
		for _, e := range Index {
			if e.ID != "" {
				indexed = append(indexed, e.ID+" "+e.Name)
			}
		}
		if got, want := strings.Join(design, ", "), strings.Join(indexed, ", "); got != want {
			t.Errorf("DESIGN §4 lists %s;\nthe index has %s", got, want)
		}
	})

	t.Run("README", func(t *testing.T) {
		block := section(t, readRepoFile(t, "README.md"), "## Reproducing the paper", "### ")
		line := regexp.MustCompile(`(?m)^go run \./cmd/fvbench (?:-\S+ \S+ )*([a-z0-9-]+)\s+#\s*(?:(E\d+):)?`)
		named := map[string]bool{}
		for _, m := range line.FindAllStringSubmatch(block, -1) {
			e, ok := Lookup(m[1])
			switch {
			case !ok:
				t.Errorf("README runs fvbench %s, which the index lacks", m[1])
			case m[2] != "" && m[2] != e.ID:
				t.Errorf("README labels fvbench %s as %s, the index says %q", m[1], m[2], e.ID)
			}
			named[m[1]] = true
		}
		for _, e := range Index {
			// "all" stands for every sweep entry.
			if !named[e.Name] && !(e.Sweep && named["all"]) {
				t.Errorf("README does not run fvbench %s", e.Name)
			}
		}
	})

	t.Run("fvbench", func(t *testing.T) {
		list := section(t, readRepoFile(t, "cmd/fvbench/main.go"), "// Experiments (latency mode):", "//\n// Throughput")
		line := regexp.MustCompile(`(?m)^//\t(\S+) +(?:(E\d+): )?(.+)$`)
		var got []Entry
		for _, m := range line.FindAllStringSubmatch(list, -1) {
			got = append(got, Entry{Name: m[1], ID: m[2], Desc: m[3]})
		}
		if len(got) != len(Index) {
			t.Fatalf("fvbench's package comment lists %d experiments, the index %d", len(got), len(Index))
		}
		for i, e := range Index {
			if g := got[i]; g.Name != e.Name || g.ID != e.ID || g.Desc != e.Desc {
				t.Errorf("fvbench's package comment line %d reads %s %q %q, the index %s %q %q",
					i+1, g.Name, g.ID, g.Desc, e.Name, e.ID, e.Desc)
			}
		}
	})
}
