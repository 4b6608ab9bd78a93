package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"strings"
)

// Hotpath enforces the repo's zero-allocation discipline at lint time:
// PR 5 made the simulator core allocation-free (sim.Runner steady state
// = 0 allocs/op) and PR 8 extended that to the gateway's instrumented
// wire path (TestHandleMessageUnsampledZeroAlloc), but those invariants
// were only guarded by point tests measuring one configuration. This
// check walks the call graph from every function annotated
//
//	// bwlint:hotpath
//
// and reports each heap-allocating construct — closures, make/new,
// slice and map literals, append growth, string concatenation and
// conversions, interface boxing, fmt calls, map inserts, go statements
// — reachable without crossing a goroutine spawn or dynamic dispatch.
// Known-amortized or cold sites are acknowledged in place:
//
//	// bwlint:allocok <reason>
//
// on (or directly above) the allocating line; the check counts the
// escapes in effect and bwlint -v reports them, so the exemption budget
// is visible in every run.
//
// The load-bearing hot paths cannot silently lose their annotation:
// Required lists the functions that must carry bwlint:hotpath whenever
// their package is linted, so deleting the annotation (or the function)
// is itself a finding — the acceptance gate from the issue.
//
// Boundaries (documented unsoundness, erring toward silence): calls
// through interfaces, function values, and stdlib functions outside the
// known-allocating list are not followed.
type Hotpath struct {
	// Required lists node keys ("pkgpath.Recv.Name" / "pkgpath.Name")
	// that must be annotated bwlint:hotpath when their package is
	// linted.
	Required []string

	escapes int
}

// NewHotpath returns the check with the repo's required roots: the
// sim.Runner/MultiRunner loops and the step kernel under them (which
// the gateway's shard.tick runs too), the three policies' round methods
// (the kernel reaches them through the sim.SparseAllocator interface,
// which the call graph does not follow, so they are roots of their own),
// the FIFO queue, the schedule cursor/append path, and the gateway
// read/dispatch/apply/write path.
func NewHotpath() *Hotpath {
	return &Hotpath{Required: []string{
		"dynbw/internal/sim.Runner.Run",
		"dynbw/internal/sim.MultiRunner.Run",
		"dynbw/internal/sim.Slots.Step",
		"dynbw/internal/sim.Slots.Add",
		"dynbw/internal/sim.Session.Step",
		"dynbw/internal/core.Phased.RatesActive",
		"dynbw/internal/core.Continuous.RatesActive",
		"dynbw/internal/core.Combined.RatesActive",
		"dynbw/internal/queue.FIFO.Push",
		"dynbw/internal/queue.FIFO.Serve",
		"dynbw/internal/bw.Schedule.Set",
		"dynbw/internal/bw.Cursor.At",
		"dynbw/internal/bw.Cursor.Integral",
		"dynbw/internal/gateway.Gateway.handleMessage",
		"dynbw/internal/gateway.Gateway.handleOne",
		"dynbw/internal/gateway.Gateway.handleBatch",
		"dynbw/internal/gateway.Gateway.batchData",
		"dynbw/internal/gateway.Gateway.flushBatchData",
		"dynbw/internal/gateway.Gateway.applyMessage",
		"dynbw/internal/gateway.shard.tick",
	}}
}

// Name implements Check.
func (*Hotpath) Name() string { return "hotpath" }

// Doc implements Check.
func (*Hotpath) Doc() string {
	return "bwlint:hotpath functions must be transitively free of heap-allocating constructs"
}

// Stats implements Stater.
func (c *Hotpath) Stats() string {
	return fmt.Sprintf("%d bwlint:allocok escape(s) in effect", c.escapes)
}

// Run implements Check.
func (c *Hotpath) Run(prog *Program, report Reporter) {
	c.escapes = 0
	graph := prog.CallGraph()

	listed := map[string]bool{}
	for _, pkg := range prog.Pkgs {
		listed[pkg.ImportPath] = true
	}

	// Required coverage: every listed load-bearing root must exist and
	// carry the annotation.
	for _, key := range c.Required {
		pkgPath := requiredKeyPackage(key)
		if !listed[pkgPath] {
			continue
		}
		node := graph.Lookup(key)
		if node == nil {
			if pos := packagePos(prog, pkgPath); pos != token.NoPos {
				report(pos, "required hot-path function %s no longer exists; update the hotpath required-roots list or restore it", key)
			}
			continue
		}
		if !node.Hotpath {
			report(node.Decl.Pos(), "%s is a required zero-allocation path but is missing its // bwlint:hotpath annotation", displayKey(node))
		}
	}

	// Walk the spawn-free closure of every annotated root.
	allocok := newDirectiveIndex(prog, "bwlint:allocok")
	rootOf := map[*FuncNode]*FuncNode{}
	var order []*FuncNode
	for _, n := range graph.Nodes() {
		if !n.Hotpath {
			continue
		}
		if _, seen := rootOf[n]; seen {
			continue
		}
		queue := []*FuncNode{n}
		rootOf[n] = n
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			order = append(order, cur)
			for _, callee := range cur.Callees {
				if _, seen := rootOf[callee]; !seen {
					rootOf[callee] = rootOf[cur]
					queue = append(queue, callee)
				}
			}
		}
	}

	for _, node := range order {
		if !listed[node.Pkg.ImportPath] {
			continue
		}
		for _, site := range node.Allocs {
			if reason := allocok.at(prog.Fset, site.Pos); reason != "" {
				c.escapes++
				continue
			}
			detail := ""
			if site.Detail != "" {
				detail = " (" + site.Detail + ")"
			}
			report(site.Pos, "%s%s on the zero-alloc hot path from %s (in %s); annotate // bwlint:allocok <reason> if amortized or cold",
				site.Kind, detail, displayKey(rootOf[node]), displayKey(node))
		}
	}
}

// requiredKeyPackage strips the function part of a node key, leaving the
// import path ("dynbw/internal/sim.Runner.Run" -> "dynbw/internal/sim").
func requiredKeyPackage(key string) string {
	slash := strings.LastIndex(key, "/")
	rest := key
	prefix := ""
	if slash >= 0 {
		prefix, rest = key[:slash+1], key[slash+1:]
	}
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	return prefix + rest
}

// packagePos returns an anchor position for package-level findings.
func packagePos(prog *Program, importPath string) token.Pos {
	for _, pkg := range prog.Pkgs {
		if pkg.ImportPath == importPath && len(pkg.Files) > 0 {
			return pkg.Files[0].Name.Pos()
		}
	}
	return token.NoPos
}

// displayKey renders a node key with the package base only
// ("sim.Runner.Run") for readable messages.
func displayKey(n *FuncNode) string {
	base := path.Base(n.Pkg.ImportPath)
	if n.RecvType != "" {
		return base + "." + n.RecvType + "." + n.Decl.Name.Name
	}
	return base + "." + n.Decl.Name.Name
}

// directiveIndex resolves per-line escape comments, built lazily per
// file so packages without directives pay nothing.
type directiveIndex struct {
	directive string
	files     map[*ast.File]map[int]string
	byName    map[string]*ast.File
}

func newDirectiveIndex(prog *Program, directive string) *directiveIndex {
	idx := &directiveIndex{
		directive: directive,
		files:     map[*ast.File]map[int]string{},
		byName:    map[string]*ast.File{},
	}
	for _, pkg := range prog.All {
		for _, f := range pkg.Files {
			idx.byName[prog.Fset.Position(f.Pos()).Filename] = f
		}
	}
	return idx
}

// at returns the escape reason covering pos, or "".
func (idx *directiveIndex) at(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	f := idx.byName[p.Filename]
	if f == nil {
		return ""
	}
	lines, ok := idx.files[f]
	if !ok {
		lines = lineDirectives(fset, f, idx.directive)
		idx.files[f] = lines
	}
	return lines[p.Line]
}
