package fastflip_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameDeclaredTests: every Test…, Benchmark… or Fuzz… name that
// DESIGN.md, EXPERIMENTS.md or README.md puts in backticks is declared in
// a _test.go file of the tree, so deleting or renaming a test cannot leave
// a claim about it behind. A name that is a whole code span must be
// declared as written; one inside a longer span (a `go test -run ...`
// command) is a pattern and must begin some declared name.
func TestDocsNameDeclaredTests(t *testing.T) {
	testName := regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)\w*`)
	declared := map[string]bool{}
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range funcDecl.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	codeSpan := regexp.MustCompile("`([^`\n]+)`")
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpan.FindAllStringSubmatch(string(text), -1) {
			for _, name := range testName.FindAllString(span[1], -1) {
				if declared[name] || name != span[1] && hasPrefixIn(declared, name) {
					continue
				}
				t.Errorf("%s names `%s`, which no _test.go file declares", doc, name)
			}
		}
	}
}

// hasPrefixIn reports whether some key of names begins with prefix.
func hasPrefixIn(names map[string]bool, prefix string) bool {
	for n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}
