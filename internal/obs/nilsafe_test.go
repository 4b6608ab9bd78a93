package obs

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// nilSafe lists the types documented "the nil *T is a valid no-op": the
// metrics registry and the tracers are optional everywhere, so call sites
// hold nil instruments and call them without a guard.
var nilSafe = []reflect.Type{
	reflect.TypeFor[*Counter](),
	reflect.TypeFor[*Gauge](),
	reflect.TypeFor[*Histogram](),
	reflect.TypeFor[*RateLimited](),
	reflect.TypeFor[*Recorder](),
	reflect.TypeFor[*Registry](),
	reflect.TypeFor[*Ring](),
	reflect.TypeFor[*Sampler](),
	reflect.TypeFor[*SpanRing](),
}

// TestNilReceiversNoPanic calls every exported method of every nil-safe
// type on a nil receiver, with zero-valued arguments, and requires that
// none panics and every result is the zero value: a nil instrument
// records nothing and reports nothing. It makes two passes, so each
// read-back runs after every mutator has. The table must be exactly the
// types whose doc makes the claim, so a new one cannot be left out.
func TestNilReceiversNoPanic(t *testing.T) {
	var table []string
	for _, typ := range nilSafe {
		table = append(table, typ.Elem().Name())
	}
	if documented := documentedNilSafe(t); !slices.Equal(table, documented) {
		t.Errorf("nil-safe table %v, documented nil-safe types %v", table, documented)
	}
	for _, typ := range nilSafe {
		t.Run(typ.Elem().Name(), func(t *testing.T) {
			if typ.NumMethod() == 0 {
				t.Fatalf("%v has no exported methods", typ)
			}
			recv := reflect.Zero(typ)
			for pass := 1; pass <= 2; pass++ {
				for i := 0; i < typ.NumMethod(); i++ {
					name := typ.Elem().Name() + "." + typ.Method(i).Name
					for j, out := range callNoPanic(t, name, recv.Method(i)) {
						if !out.IsZero() {
							t.Errorf("pass %d: nil *%s result %d = %v, want the zero value", pass, name, j, out)
						}
					}
				}
			}
		})
	}
}

// callNoPanic calls m with zero-valued arguments (none for a variadic
// tail) and fails the test, naming the method, if it panics.
func callNoPanic(t *testing.T, name string, m reflect.Value) (out []reflect.Value) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("nil *%s panicked: %v", name, r)
		}
	}()
	mt := m.Type()
	n := mt.NumIn()
	if mt.IsVariadic() {
		n--
	}
	args := make([]reflect.Value, n)
	for i := range args {
		args[i] = reflect.Zero(mt.In(i))
	}
	return m.Call(args)
}

// documentedNilSafe returns, sorted, the types of this package whose doc
// comment says the nil pointer is a valid no-op.
func documentedNilSafe(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "dynbw/internal/obs")
	if err != nil {
		t.Fatal(err)
	}
	claim := regexp.MustCompile(`[Nn]il \*(\w+) is a valid no-op`)
	var documented []string
	for _, dt := range pkg.Types {
		m := claim.FindStringSubmatch(strings.Join(strings.Fields(dt.Doc), " "))
		if m != nil && m[1] == dt.Name {
			documented = append(documented, dt.Name)
		}
	}
	slices.Sort(documented)
	return documented
}
