package analysis

import (
	"go/parser"
	"go/token"
	"testing"
)

// TestKeepFileBuildConstraints pins how the loader evaluates //go:build
// lines: release tags hold up to the running toolchain, BuildTags hold,
// every other tag is false, compound expressions are evaluated, and a
// malformed line drops the file.
func TestKeepFileBuildConstraints(t *testing.T) {
	const both = "fvinvariants && !simrefqueue"
	cases := []struct {
		build string // "" means no //go:build line
		tags  []string
		keep  bool
	}{
		{"", nil, true},
		{"go1.23", nil, true},
		{"go1.999", nil, false},
		{"!go1.999", nil, true},
		{"linux", nil, false},
		{"fvinvariants", nil, false},
		{"fvinvariants", []string{"fvinvariants"}, true},
		{"!fvinvariants", nil, true},
		{"!fvinvariants", []string{"fvinvariants"}, false},
		{both, nil, false},
		{both, []string{"fvinvariants"}, true},
		{both, []string{"simrefqueue"}, false},
		{both, []string{"fvinvariants", "simrefqueue"}, false},
		{"go1.23 && (fvinvariants || simrefqueue)", []string{"simrefqueue"}, true},
		{"go1.999 || simrefqueue", nil, false},
		{"fvinvariants &&", []string{"fvinvariants"}, false},
	}
	for _, c := range cases {
		src := "package p\n"
		if c.build != "" {
			src = "//go:build " + c.build + "\n\n" + src
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		l := &Loader{BuildTags: c.tags}
		if got := l.keepFile(f); got != c.keep {
			t.Errorf("//go:build %q with tags %v: keep = %v, want %v", c.build, c.tags, got, c.keep)
		}
	}
}
