package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Determinism protects the byte-identical-goldens contract: every
// committed experiment table is regenerated in CI and compared
// byte-for-byte (and harness.ParRows is tested to produce identical
// output at any -j), so a golden producer that consults the wall clock,
// the global math/rand source, or Go's randomized map iteration order
// silently breaks every downstream comparison. Packages that produce
// committed goldens declare it in their package comment:
//
//	// bwlint:deterministic
//
// and the check then forbids, in every non-test file of the package:
//
//   - time.Now / time.Since — wall-clock values must come in through a
//     caller-supplied clock;
//   - package-level math/rand functions (Intn, Float64, Perm, Shuffle,
//     ...), which draw from the shared global source; seeded generators
//     via rand.New(rand.NewSource(seed)) are the sanctioned route;
//   - ranging over a map, unless the loop only collects keys for
//     sorting (`for k := range m { keys = append(keys, k) }`).
//
// A genuinely harmless site (output-independent timing, diagnostics) is
// acknowledged in place with
//
//	// bwlint:detok <reason>
//
// which the check counts and bwlint -v reports. The golden-producing
// packages themselves cannot opt out silently: Required lists the
// import paths that must carry the package marker, so removing the
// comment is itself a finding.
type Determinism struct {
	// Required lists import paths that must carry the
	// bwlint:deterministic package marker when linted.
	Required []string

	detoks int
}

// NewDeterminism returns the check with the repo's golden producers
// required: the experiment harness, the simulator core, and the
// experiment CLIs.
func NewDeterminism() *Determinism {
	return &Determinism{Required: []string{
		"dynbw/internal/harness",
		"dynbw/internal/sim",
		"dynbw/cmd/bwmulti",
		"dynbw/cmd/bwsim",
	}}
}

// Name implements Check.
func (*Determinism) Name() string { return "determinism" }

// Doc implements Check.
func (*Determinism) Doc() string {
	return "golden-producing packages must not use time.Now, the global math/rand source, or unordered map iteration"
}

// Stats implements Stater.
func (c *Determinism) Stats() string {
	return fmt.Sprintf("%d bwlint:detok escape(s) in effect", c.detoks)
}

// deterministicRe matches the marker only when it stands alone on its
// comment line (directive style), so prose that merely mentions it —
// this file's own doc comments, say — does not mark a package.
var deterministicRe = regexp.MustCompile(`(?m)^bwlint:deterministic\s*$`)

// Run implements Check.
func (c *Determinism) Run(prog *Program, report Reporter) {
	c.detoks = 0
	required := map[string]bool{}
	for _, p := range c.Required {
		required[p] = true
	}
	for _, pkg := range prog.Pkgs {
		marked := packageMarked(pkg)
		if required[pkg.ImportPath] && !marked {
			report(pkg.Files[0].Name.Pos(),
				"package %s produces committed goldens but its package comment lacks the bwlint:deterministic marker",
				pkg.Pkg.Name())
			continue
		}
		if !marked {
			continue
		}
		c.runPackage(prog, pkg, report)
	}
}

// packageMarked reports whether any file's package comment carries the
// deterministic marker.
func packageMarked(pkg *Package) bool {
	for _, f := range pkg.Files {
		if f.Doc != nil && deterministicRe.MatchString(f.Doc.Text()) {
			return true
		}
	}
	return false
}

func (c *Determinism) runPackage(prog *Program, pkg *Package, report Reporter) {
	for _, f := range pkg.Files {
		detok := lineDirectives(prog.Fset, f, "bwlint:detok")
		escaped := func(n ast.Node) bool {
			if reason := detok[prog.Fset.Position(n.Pos()).Line]; reason != "" {
				c.detoks++
				return true
			}
			return false
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.CallExpr:
				pkgPath, name, ok := qualifiedCallee(pkg, st)
				if !ok {
					return true
				}
				switch {
				case pkgPath == "time" && (name == "Now" || name == "Since"):
					if !escaped(st) {
						report(st.Pos(), "time.%s in a bwlint:deterministic package; thread a clock through the caller instead", name)
					}
				case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && globalRandFunc(name):
					if !escaped(st) {
						report(st.Pos(), "global math/rand.%s in a bwlint:deterministic package; use a seeded rand.New(rand.NewSource(...)) instead", name)
					}
				}
			case *ast.RangeStmt:
				if !isMapExpr(pkg, st.X) {
					return true
				}
				if keyCollectLoop(st) || escaped(st) {
					return true
				}
				report(st.Pos(), "range over a map in a bwlint:deterministic package iterates in random order; sort the keys first")
			}
			return true
		})
	}
}

// qualifiedCallee resolves pkgname.Func calls to (import path, name).
func qualifiedCallee(pkg *Package, call *ast.CallExpr) (string, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := pkg.Info.Uses[base].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// globalRandFunc reports whether a package-level math/rand function
// draws from the shared global source. Constructors are fine.
func globalRandFunc(name string) bool {
	switch name {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

// keyCollectLoop recognizes the sanctioned sort-the-keys idiom: a map
// range whose whole body appends the key to a slice.
func keyCollectLoop(st *ast.RangeStmt) bool {
	key, ok := st.Key.(*ast.Ident)
	if !ok || st.Value != nil || len(st.Body.List) != 1 {
		return false
	}
	assign, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	arg, ok := call.Args[1].(*ast.Ident)
	return ok && arg.Name == key.Name
}

func isMapExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// lineDirectives collects per-line "bwlint:<name> <reason>" escapes from
// every comment in a file: a directive applies to its own line and the
// line directly below it (so it can ride an end-of-line comment or sit
// above the construct).
func lineDirectives(fset *token.FileSet, f *ast.File, directive string) map[int]string {
	re := regexp.MustCompile(regexp.QuoteMeta(directive) + `\s+(\S.*)`)
	out := map[int]string{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := re.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			line := fset.Position(c.Pos()).Line
			reason := strings.TrimSpace(m[1])
			out[line] = reason
			out[line+1] = reason
		}
	}
	return out
}
