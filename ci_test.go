package tdmnoc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsNameRealTests keeps the CI workflow honest: every
// alternative of every -run, -bench and -fuzz pattern on a `go test`
// line of .github/workflows/ci.yml must match at least one test function
// of the right kind declared in that line's package. A renamed or
// deleted test otherwise leaves its CI step passing while running
// nothing.
func TestCIPatternsNameRealTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	// Each flag selects functions by its own prefixes: -run matches
	// tests and fuzz targets (run on their seed corpus), -bench matches
	// benchmarks, -fuzz matches fuzz targets.
	kinds := map[string][]string{
		"-run":   {"Test", "Fuzz"},
		"-bench": {"Benchmark"},
		"-fuzz":  {"Fuzz"},
	}
	checked := 0
	for n, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimSpace(line)
		at := strings.Index(trimmed, "go test ")
		if at < 0 || strings.HasPrefix(trimmed, "#") {
			continue
		}
		args := strings.Fields(strings.NewReplacer("'", "", `"`, "").Replace(trimmed[at+len("go test "):]))
		var pkgs []string
		patterns := map[string]string{}
		for i, a := range args {
			if _, ok := kinds[a]; ok && i+1 < len(args) {
				patterns[a] = args[i+1]
			}
			if a == "." || strings.HasPrefix(a, "./") {
				pkgs = append(pkgs, a)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		var funcs []string
		for _, p := range pkgs {
			funcs = append(funcs, testFuncs(t, p)...)
		}
		for flag, pattern := range patterns {
			for _, alt := range strings.Split(pattern, "|") {
				if alt == "^$" {
					continue
				}
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s alternative %q: %v", n+1, flag, alt, err)
					continue
				}
				if !matchesAny(re, funcs, kinds[flag]) {
					t.Errorf("ci.yml:%d: %s alternative %q matches no %s function in %v",
						n+1, flag, alt, strings.Join(kinds[flag], "/"), pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no test patterns in ci.yml; the check would be vacuous")
	}
}

// testFuncs lists the top-level function names declared in the _test.go
// files of one package directory.
func testFuncs(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
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

func matchesAny(re *regexp.Regexp, funcs, prefixes []string) bool {
	for _, name := range funcs {
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) && re.MatchString(name) {
				return true
			}
		}
	}
	return false
}
