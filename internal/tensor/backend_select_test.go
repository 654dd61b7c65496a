package tensor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryAsmRoutineIsCalled reads the package's own sources and requires
// every TEXT symbol in a .s file to be used by non-test Go code somewhere
// other than in its own declaration. go vet's asmdecl holds a declaration
// against its body; nothing else notices a routine that lost its last
// caller.
func TestEveryAsmRoutineIsCalled(t *testing.T) {
	asmFiles, err := filepath.Glob("*.s")
	if err != nil {
		t.Fatal(err)
	}
	textSym := regexp.MustCompile(`(?m)^TEXT\s+·(\w+)\(SB\)`)
	var routines []string
	for _, f := range asmFiles {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range textSym.FindAllSubmatch(src, -1) {
			routines = append(routines, string(m[1]))
		}
	}
	if len(routines) == 0 {
		t.Fatal("no TEXT symbols found: the test is not reading the package directory")
	}

	goFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, f := range goFiles {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		declNames := map[*ast.Ident]bool{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declNames[n.Name] = true
			case *ast.Ident:
				if !declNames[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}
	for _, name := range routines {
		if !used[name] {
			t.Errorf("assembly routine %s is declared but nothing calls it", name)
		}
	}
}

// TestBackendSelection pins how the active backend is chosen: the most
// preferred compiled backend by default, VRDAG_BACKEND by name, and a loud
// fallback for a name this binary does not have (what a script that still
// sets a since-deleted backend gets).
func TestBackendSelection(t *testing.T) {
	active := backendImpl
	defer func() { backendImpl = active }()

	// Every probed CPU feature but "fma" registers the backend of the same
	// name, and nothing else registers: [purego tuned avx2] where the AVX2
	// assembly is compiled in and the CPU has it, [purego tuned] otherwise.
	// "fma" names the avx2 backend's exp kernel (TestExpKernelGate).
	names := BackendNames()
	features := slices.DeleteFunc(slices.Clone(CPUFeatures()), func(f string) bool { return f == "fma" })
	if want := append([]string{"purego", "tuned"}, features...); !slices.Equal(names, want) {
		t.Fatalf("BackendNames() = %v, want %v", names, want)
	}
	preferred := names[len(names)-1]

	t.Setenv("VRDAG_BACKEND", "")
	if got := initBackend().Name(); got != preferred {
		t.Errorf("VRDAG_BACKEND unset: selected %q, want %q", got, preferred)
	}
	for _, name := range []string{"purego", "tuned"} {
		t.Setenv("VRDAG_BACKEND", name)
		if got := initBackend().Name(); got != name {
			t.Errorf("VRDAG_BACKEND=%s: selected %q", name, got)
		}
	}

	t.Setenv("VRDAG_BACKEND", "wide")
	var got string
	warning := captureStderr(t, func() { got = initBackend().Name() })
	if got != preferred {
		t.Errorf("VRDAG_BACKEND=wide: selected %q, want the fallback %q", got, preferred)
	}
	if strings.Count(warning, "\n") != 1 || !strings.Contains(warning, `"wide"`) ||
		!strings.Contains(warning, strings.Join(names, " ")) {
		t.Errorf("VRDAG_BACKEND=wide: want one stderr line naming it and listing %v, got %q", names, warning)
	}

	if err := SetBackend("wide"); err == nil || !strings.Contains(err.Error(), strings.Join(names, " ")) {
		t.Errorf("SetBackend(wide): want an error listing %v, got %v", names, err)
	}
	if ActiveBackend() != active.Name() {
		t.Errorf("failed SetBackend changed the active backend to %q", ActiveBackend())
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stderr
	os.Stderr = w
	fn()
	os.Stderr = orig
	w.Close()
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
