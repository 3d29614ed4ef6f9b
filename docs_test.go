package fibril_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The documents a reader learns the system from, and the directories a path
// in them can start with.
var (
	checkedDocs  = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "results/README.md", ".claude/skills/verify/SKILL.md"}
	ciWorkflow   = ".github/workflows/ci.yml"
	pathPrefixes = []string{"internal/", "cmd/", "results/", "benchmark/", "examples/", "testdata/", ".github/"}

	codeSpanRE   = regexp.MustCompile("`([^`\n]+)`")
	experimentRE = regexp.MustCompile("(?:^|[\\s`(])-experiment[ =]([a-z0-9-]+)")
	armRE        = regexp.MustCompile(`(?m)^\t\t\{"([a-z0-9-]+)", func`)
	qualifiedRE  = regexp.MustCompile(`\.[A-Za-z_][A-Za-z0-9_]*$`)
	testNameRE   = regexp.MustCompile(`(?:^|[^.\w])((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)`)
	testFuncRE   = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
)

// appendixHeading opens the one section that may name what is no longer in
// the tree; it runs to the next heading of its level.
const appendixHeading = "## Appendix: tried and removed"

// TestDocsNameWhatExists keeps the prose to the tree: every repo-relative
// path the documents put in code — a span or a fenced block — exists, every
// test, benchmark or fuzz target they name there is a func some _test.go
// file declares, and every experiment they pass to -experiment is one
// cmd/fibril-bench accepts. The CI workflow is held to the tests it names
// anywhere: a -run pattern that names a deleted test matches nothing and
// passes. A change that deletes a file, renames a test or drops an
// experiment has to take its mentions along, or move them to the "tried
// and removed" appendix.
func TestDocsNameWhatExists(t *testing.T) {
	src, err := os.ReadFile("cmd/fibril-bench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	tests := testFuncs(t)
	experiments := map[string]bool{"all": true}
	for _, m := range armRE.FindAllStringSubmatch(string(src), -1) {
		experiments[m[1]] = true
	}
	if len(experiments) < 5 {
		t.Fatalf("found only %d experiments in cmd/fibril-bench/main.go's table: %v", len(experiments), experiments)
	}
	for _, doc := range checkedDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := withoutAppendix(string(raw))
		paths := 0
		for _, code := range codeIn(text) {
			for _, m := range testNameRE.FindAllStringSubmatch(code, -1) {
				if !tests[m[1]] {
					t.Errorf("%s names %s, which no _test.go file declares", doc, m[1])
				}
			}
			for _, tok := range strings.Fields(code) {
				p := strings.TrimPrefix(strings.Trim(tok, `()[],;:'"…`), "./")
				if !slices.ContainsFunc(pathPrefixes, func(pre string) bool { return strings.HasPrefix(p, pre) }) {
					continue
				}
				paths++
				if !exists(p) {
					t.Errorf("%s names %q, which is not in the tree", doc, p)
				}
			}
		}
		if paths == 0 {
			t.Errorf("%s: no repo-relative path found in its code spans — has the check gone blind?", doc)
		}
		for _, m := range experimentRE.FindAllStringSubmatch(text, -1) {
			if !experiments[m[1]] {
				t.Errorf("%s quotes -experiment %s, which cmd/fibril-bench does not accept", doc, m[1])
			}
		}
	}
	ci, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	names := testNameRE.FindAllStringSubmatch(string(ci), -1)
	if len(names) == 0 {
		t.Errorf("%s: no test name found — has the check gone blind?", ciWorkflow)
	}
	for _, m := range names {
		if !tests[m[1]] {
			t.Errorf("%s names %s, which no _test.go file declares", ciWorkflow, m[1])
		}
	}
}

// testFuncs returns the name of every Test, Benchmark and Fuzz func declared
// in a _test.go file of the tree.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) < 100 {
		t.Fatalf("found only %d test funcs in the tree — has the walk gone blind?", len(names))
	}
	return names
}

// withoutAppendix cuts the "tried and removed" section out of a document.
func withoutAppendix(text string) string {
	i := strings.Index(text, "\n"+appendixHeading)
	if i < 0 {
		return text
	}
	rest := text[i+1+len(appendixHeading):]
	if j := strings.Index(rest, "\n## "); j >= 0 {
		return text[:i] + rest[j:]
	}
	return text[:i]
}

// codeIn returns the contents of a document's fenced blocks, line by line,
// and of its inline code spans.
func codeIn(text string) []string {
	var code, prose []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			fenced = !fenced
		case fenced:
			code = append(code, line)
		default:
			prose = append(prose, line)
		}
	}
	for _, m := range codeSpanRE.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		code = append(code, m[1])
	}
	return code
}

// exists reports whether p is a file or directory of the tree, a Go package
// pattern over a directory of it (internal/...), or a package directory
// followed by one of its identifiers (internal/invoke.AnalyzeBurdened).
func exists(p string) bool {
	p = strings.TrimSuffix(p, "/...")
	if _, err := os.Stat(p); err == nil {
		return true
	}
	dir := qualifiedRE.ReplaceAllString(p, "")
	if dir == p {
		return false
	}
	st, err := os.Stat(dir)
	return err == nil && st.IsDir()
}
