package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCISelectorsMatch guards the CI workflow against steps that silently
// run nothing: `go test -run NoSuchTest` passes, so a renamed test would
// empty its step. On every `go test` line of .github/workflows/ci.yml,
// each top-level alternative of a -run, -bench or -fuzz pattern must match
// a Test, Benchmark or Fuzz function of the line's packages, and each
// package named on the line must hold a match of the whole pattern. The
// -run placeholders that switch tests off beside -bench or -fuzz (xxx and
// '^$') are exempt.
func TestCISelectorsMatch(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	for _, line := range strings.Split(string(data), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		args := shellWords(line[i+len("go test "):])
		flags := map[string]string{}
		var pkgs []string
		for j := 0; j < len(args); j++ {
			switch a := args[j]; {
			case (a == "-run" || a == "-bench" || a == "-fuzz") && j+1 < len(args):
				flags[a] = args[j+1]
				j++
			case strings.HasPrefix(a, "./") || a == ".":
				pkgs = append(pkgs, a)
			}
		}
		if len(flags) == 0 {
			continue
		}
		lines++
		if len(pkgs) == 0 {
			t.Errorf("ci.yml: %q selects tests but names no package", strings.TrimSpace(line))
			continue
		}
		funcs := map[string][]string{} // package -> test function names
		for _, pkg := range pkgs {
			funcs[pkg] = testFuncs(t, pkg)
		}
		for flag, pattern := range flags {
			if flag == "-run" && (pattern == "xxx" || pattern == "^$") && (flags["-bench"] != "" || flags["-fuzz"] != "") {
				continue
			}
			prefix := map[string]string{"-run": "Test", "-bench": "Benchmark", "-fuzz": "Fuzz"}[flag]
			checkSelector(t, strings.TrimSpace(line), prefix, pattern, funcs)
		}
	}
	if lines == 0 {
		t.Fatal("ci.yml has no go test line with a -run, -bench or -fuzz selector")
	}
}

// citedTest matches a Test, Benchmark or Fuzz name in prose, with the
// -run, -bench or -fuzz flag it may follow and a trailing * that makes it a
// prefix.
var citedTest = regexp.MustCompile(`(-(?:run|bench|fuzz)[ =]'?)?\b((?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*)(\*)?`)

// TestDocCitedTestsExist keeps the evidence the documents cite runnable:
// every Test, Benchmark or Fuzz name in EXPERIMENTS.md, DESIGN.md and
// README.md must be a function of the module's _test.go files. A name with
// a trailing * or following a -run, -bench or -fuzz flag is a prefix, which
// at least one function must have.
func TestDocCitedTestsExist(t *testing.T) {
	funcs := testFuncs(t, "./...")
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		cited := 0
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range citedTest.FindAllStringSubmatch(line, -1) {
				cited++
				name, prefix := m[2], m[1] != "" || m[3] != ""
				found := slices.ContainsFunc(funcs, func(f string) bool {
					return f == name || prefix && strings.HasPrefix(f, name)
				})
				if !found {
					t.Errorf("%s:%d cites %s%s, which no _test.go function is", doc, i+1, name, m[3])
				}
			}
		}
		if cited == 0 {
			t.Errorf("%s cites no test: the pattern no longer reads it", doc)
		}
	}
}

// checkSelector reports a pattern alternative that matches no function
// with the prefix in any package, and a package (other than a ./...
// pattern) where the whole pattern matches none.
func checkSelector(t *testing.T, line, prefix, pattern string, funcs map[string][]string) {
	t.Helper()
	top := strings.Split(pattern, "/")[0] // -run A/B selects top-level tests by A
	matches := func(re *regexp.Regexp, names []string) bool {
		for _, name := range names {
			if strings.HasPrefix(name, prefix) && re.MatchString(name) {
				return true
			}
		}
		return false
	}
	var all []string
	for _, names := range funcs {
		all = append(all, names...)
	}
	for _, alt := range strings.Split(top, "|") {
		if re, err := regexp.Compile(alt); err != nil || !matches(re, all) {
			t.Errorf("ci.yml: %q: alternative %q of %q matches no %s function (err %v)", line, alt, pattern, prefix, err)
		}
	}
	re, err := regexp.Compile(top)
	if err != nil {
		return // reported above
	}
	for pkg, names := range funcs {
		if !strings.HasSuffix(pkg, "...") && !matches(re, names) {
			t.Errorf("ci.yml: %q: %q matches no %s function in %s", line, pattern, prefix, pkg)
		}
	}
}

// testFuncs returns the top-level function names declared in the _test.go
// files of package path pkg (./... walks every package of the module, the
// nested benchmark module excluded).
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	var files []string
	if root, ok := strings.CutSuffix(pkg, "..."); ok {
		err := filepath.WalkDir(filepath.Clean(root), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && (path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != ".") {
				return filepath.SkipDir
			}
			if strings.HasSuffix(path, "_test.go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	} else {
		var err error
		if files, err = filepath.Glob(filepath.Join(pkg, "*_test.go")); err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

// shellWords splits a command line on blanks, keeping single- and
// double-quoted words whole, and stops at a shell operator.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	in, quote := false, byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case quote != 0 && c == quote:
			quote = 0
		case quote != 0:
			cur.WriteByte(c)
		case c == '\'' || c == '"':
			quote, in = c, true
		case c == ' ' || c == '\t':
			if in {
				words = append(words, cur.String())
				cur.Reset()
				in = false
			}
		case c == '&' || c == '|' || c == ';' || c == '>':
			if in {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteByte(c)
			in = true
		}
	}
	if in {
		words = append(words, cur.String())
	}
	return words
}
