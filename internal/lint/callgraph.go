package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// callgraph.go is the layer-2 analysis engine: one pass over the loaded
// program produces a FuncNode summary per function declaration — its
// static intra-module callees, receiver, mutex operations,
// allocation-inducing constructs, goroutine-spawn boundaries, and the
// bwlint annotations on its doc comment — and the whole-program checks
// (hotpath, shard-confinement) walk the resulting graph instead of
// re-deriving these facts per check. The graph is built lazily, exactly
// once per Program, and shared by every check in the run.

// Annotation grammar understood by the engine:
//
//	// bwlint:hotpath
//	    on a function doc: the function and everything it (transitively,
//	    statically) calls must be free of heap-allocating constructs.
//	// bwlint:allocok <reason>
//	    on or directly above an allocating line inside a hot path: the
//	    allocation is acknowledged (amortized growth, cold error branch).
//	    The reason is mandatory; escapes in effect are counted and
//	    reported by bwlint -v.
//	// confined to <Type>.<method>   (struct field comment)
//	    the field may only be touched inside the named method's
//	    spawn-free call closure, in constructors, or with the owning
//	    struct's mutex held. See ShardConfinement.
//	// bwlint:deterministic          (package comment)
//	    the package produces committed goldens; time.Now, the global
//	    math/rand source, and unordered map iteration are forbidden.
//	    See Determinism.
//	// bwlint:detok <reason>
//	    on or directly above a line in a deterministic package: the
//	    nondeterminism source is acknowledged (not on an output path).

// AllocKind classifies one allocation-inducing construct.
type AllocKind string

const (
	AllocClosure   AllocKind = "function literal (closure)"
	AllocMake      AllocKind = "make"
	AllocNew       AllocKind = "new"
	AllocAppend    AllocKind = "append may grow its backing array"
	AllocCompLit   AllocKind = "composite literal allocates"
	AllocConcat    AllocKind = "string concatenation"
	AllocConvert   AllocKind = "string/byte-slice conversion"
	AllocBox       AllocKind = "interface boxing"
	AllocFmt       AllocKind = "allocating stdlib call"
	AllocGo        AllocKind = "go statement (goroutine + closure)"
	AllocMapAssign AllocKind = "map assignment may grow the table"
)

// AllocSite is one allocation-inducing construct inside a function body.
type AllocSite struct {
	Pos  token.Pos
	Kind AllocKind
	// Detail names the construct (the callee for stdlib calls, the type
	// for conversions) for the finding message.
	Detail string
}

// LockOp is one mutex acquisition found in a function body: base.mu.Lock()
// renders as {Base: "base", Mutex: "mu", Read: false}.
type LockOp struct {
	Pos   token.Pos
	Base  string // rendered receiver expression of the mutex field
	Mutex string // mutex field name
	Read  bool   // RLock rather than Lock
}

// FuncNode is the summary of one function or method declaration.
type FuncNode struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	// Key is the node's stable identity: "pkgpath.Name" for functions,
	// "pkgpath.Recv.Name" for methods (pointer-ness of the receiver is
	// ignored). It survives packages with type errors, where Obj may be
	// nil.
	Key string
	// RecvType is the bare receiver type name, "" for plain functions.
	RecvType string
	// Obj is the go/types object when type checking succeeded.
	Obj *types.Func

	// Hotpath reports a bwlint:hotpath doc annotation.
	Hotpath bool

	// Callees are the statically resolved intra-module calls made on the
	// normal (same-goroutine) path, deduplicated, in source order.
	// Dynamic dispatch through interfaces and calls outside the module
	// are not represented; checks that walk the graph treat those as
	// analysis boundaries.
	Callees []*FuncNode

	// SpawnedCallees are intra-module functions invoked via a go
	// statement (directly or as the body of a spawned function literal).
	// They run on a different goroutine and are therefore outside every
	// confinement region that contains the spawn.
	SpawnedCallees []*FuncNode

	// Spawns are the positions of go statements (and function literals
	// handed to known worker-pool submit methods) in the body.
	Spawns []token.Pos

	// Allocs are the allocation-inducing constructs in the body,
	// including bodies of non-spawned function literals (those run, at
	// the latest, when the enclosing function returns via defer).
	Allocs []AllocSite

	// Locks are the mutex acquisitions in the body.
	Locks []LockOp
}

// CallGraph indexes the function summaries of a loaded program.
type CallGraph struct {
	// Funcs maps node keys ("pkgpath.Recv.Name") to summaries.
	Funcs map[string]*FuncNode
	// byObj resolves type-checked callees.
	byObj map[*types.Func]*FuncNode
	// nodes in deterministic order, for ordered iteration.
	nodes []*FuncNode
}

// Nodes returns every summary in deterministic (key) order.
func (g *CallGraph) Nodes() []*FuncNode { return g.nodes }

// Lookup returns the summary for a key, or nil.
func (g *CallGraph) Lookup(key string) *FuncNode { return g.Funcs[key] }

// CallGraph returns the program's function-summary graph, building it on
// first use and sharing the result across all checks of the run.
func (p *Program) CallGraph() *CallGraph {
	p.cgOnce.Do(func() {
		p.cgBuilds++
		p.cg = buildCallGraph(p)
	})
	return p.cg
}

// CallGraphBuilds reports how many times the summary graph was actually
// constructed for this program — the single-load regression test asserts
// it stays at 1 however many checks run.
func (p *Program) CallGraphBuilds() int { return p.cgBuilds }

var hotpathRe = regexp.MustCompile(`bwlint:hotpath\b`)

// buildCallGraph summarizes every function declaration of every loaded
// package (listed and dependency alike, so reachability crosses package
// boundaries even when only one directory is linted).
func buildCallGraph(prog *Program) *CallGraph {
	g := &CallGraph{
		Funcs: make(map[string]*FuncNode),
		byObj: make(map[*types.Func]*FuncNode),
	}
	type pendingCalls struct {
		node    *FuncNode
		calls   []*ast.CallExpr // same-goroutine calls
		spawned []*ast.CallExpr // calls behind a go statement
	}
	var pending []pendingCalls

	for _, pkg := range prog.All {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				node := &FuncNode{
					Pkg:      pkg,
					Decl:     fd,
					RecvType: declRecvType(fd),
					Key:      nodeKey(pkg.ImportPath, fd),
					Hotpath:  fd.Doc != nil && hotpathRe.MatchString(fd.Doc.Text()),
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					node.Obj = obj
					g.byObj[obj] = node
				}
				p := pendingCalls{node: node}
				summarizeBody(pkg, fd.Body, node, &p.calls, &p.spawned)
				pending = append(pending, p)
				g.Funcs[node.Key] = node
				g.nodes = append(g.nodes, node)
			}
		}
	}
	sort.Slice(g.nodes, func(i, j int) bool { return g.nodes[i].Key < g.nodes[j].Key })

	// Resolve call edges now that every node exists.
	for _, p := range pending {
		seen := map[*FuncNode]bool{}
		for _, call := range p.calls {
			if callee := g.resolveCallee(p.node.Pkg, call); callee != nil && !seen[callee] {
				seen[callee] = true
				p.node.Callees = append(p.node.Callees, callee)
			}
		}
		seenSpawn := map[*FuncNode]bool{}
		for _, call := range p.spawned {
			if callee := g.resolveCallee(p.node.Pkg, call); callee != nil && !seenSpawn[callee] {
				seenSpawn[callee] = true
				p.node.SpawnedCallees = append(p.node.SpawnedCallees, callee)
			}
		}
	}
	return g
}

// nodeKey builds the stable identity for a declaration.
func nodeKey(importPath string, fd *ast.FuncDecl) string {
	if recv := declRecvType(fd); recv != "" {
		return importPath + "." + recv + "." + fd.Name.Name
	}
	return importPath + "." + fd.Name.Name
}

// declRecvType returns the bare receiver type name of a method decl.
func declRecvType(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	return receiverTypeName(fd.Recv.List[0].Type)
}

// resolveCallee maps a call expression to the module function it
// statically invokes, or nil (dynamic dispatch, stdlib, builtins).
func (g *CallGraph) resolveCallee(pkg *Package, call *ast.CallExpr) *FuncNode {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			// Method call: resolve only concrete (non-interface) methods —
			// an interface call site is a dynamic-dispatch boundary.
			if sel.Kind() == types.MethodVal {
				obj = sel.Obj()
				if recvIsInterface(sel.Recv()) {
					return nil
				}
			}
		} else {
			obj = pkg.Info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	// A method of an instantiated generic type (ring[Span].push) is not
	// the object its declaration defined; Origin is.
	return g.byObj[fn.Origin()]
}

func recvIsInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// spawnerNames are method names whose function-literal arguments run on
// another goroutine by convention (worker pools, serve loops); literals
// handed to them are treated like go statements.
var spawnerNames = map[string]bool{"Go": true, "Submit": true, "Serve": true, "Spawn": true}

// summarizeBody walks one function body collecting allocation sites,
// lock operations, spawn points and call expressions. Function literals
// are folded into the enclosing function (they run on the same
// goroutine) unless they are the operand of a go statement or an
// argument to a known spawner — then their body's calls are recorded as
// spawned and their accesses belong to a different confinement region.
func summarizeBody(pkg *Package, body *ast.BlockStmt, node *FuncNode, calls, spawned *[]*ast.CallExpr) {
	var walk func(n ast.Node, inSpawn bool)
	walk = func(n ast.Node, inSpawn bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				node.Spawns = append(node.Spawns, st.Pos())
				if !inSpawn {
					node.Allocs = append(node.Allocs, AllocSite{Pos: st.Pos(), Kind: AllocGo})
				}
				// The spawned call itself, and everything inside a spawned
				// literal, runs on the new goroutine.
				*spawned = append(*spawned, st.Call)
				if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, true)
				} else {
					for _, arg := range st.Call.Args {
						walk(arg, inSpawn)
					}
				}
				return false
			case *ast.CallExpr:
				summarizeCall(pkg, st, node, inSpawn)
				if isPanicCall(st) {
					// Panic arguments are cold by definition; do not charge
					// their allocations (fmt.Sprintf in a panic message) to
					// the hot path. The panic still ends the path.
					return false
				}
				if inSpawn {
					*spawned = append(*spawned, st)
				} else {
					*calls = append(*calls, st)
				}
				// Function literals passed to known spawners run elsewhere.
				if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok && spawnerNames[sel.Sel.Name] {
					for _, arg := range st.Args {
						if lit, ok := arg.(*ast.FuncLit); ok {
							node.Spawns = append(node.Spawns, lit.Pos())
							walk(lit.Body, true)
						} else {
							walk(arg, inSpawn)
						}
					}
					walk(st.Fun, inSpawn)
					return false
				}
				return true
			case *ast.FuncLit:
				if !inSpawn {
					node.Allocs = append(node.Allocs, AllocSite{Pos: st.Pos(), Kind: AllocClosure})
				}
				// Fall through: the literal's body is summarized into the
				// enclosing node (same goroutine unless spawned above).
				return true
			case *ast.UnaryExpr:
				if st.Op == token.AND && !inSpawn {
					if lit, ok := ast.Unparen(st.X).(*ast.CompositeLit); ok {
						node.Allocs = append(node.Allocs, AllocSite{
							Pos: st.Pos(), Kind: AllocCompLit,
							Detail: "&" + types.ExprString(lit.Type),
						})
						// The literal below would be skipped as a plain
						// struct literal; slice/map literals inside still
						// get their own sites via the recursion.
					}
				}
				return true
			case *ast.CompositeLit:
				if site, ok := compositeAlloc(pkg, st); ok && !inSpawn {
					node.Allocs = append(node.Allocs, site)
				}
				return true
			case *ast.BinaryExpr:
				if st.Op == token.ADD && !inSpawn && isStringExpr(pkg, st.X) {
					node.Allocs = append(node.Allocs, AllocSite{Pos: st.Pos(), Kind: AllocConcat})
				}
				return true
			case *ast.AssignStmt:
				if !inSpawn {
					for _, lhs := range st.Lhs {
						if ix, ok := lhs.(*ast.IndexExpr); ok && isMapExpr(pkg, ix.X) {
							node.Allocs = append(node.Allocs, AllocSite{Pos: lhs.Pos(), Kind: AllocMapAssign})
						}
					}
				}
				return true
			}
			return true
		})
	}
	walk(body, false)
}

// summarizeCall records the allocation and lock facts of one call.
func summarizeCall(pkg *Package, call *ast.CallExpr, node *FuncNode, inSpawn bool) {
	if isPanicCall(call) {
		// go/types records a call-site signature for builtins, so the
		// boxing detector below would otherwise charge panic's any
		// argument to the hot path; panics are cold by definition.
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if !inSpawn {
				node.Allocs = append(node.Allocs, AllocSite{Pos: call.Pos(), Kind: AllocMake, Detail: callArgType(call)})
			}
		case "new":
			if !inSpawn {
				node.Allocs = append(node.Allocs, AllocSite{Pos: call.Pos(), Kind: AllocNew, Detail: callArgType(call)})
			}
		case "append":
			if !inSpawn {
				node.Allocs = append(node.Allocs, AllocSite{Pos: call.Pos(), Kind: AllocAppend})
			}
		}
	case *ast.SelectorExpr:
		if base, ok := fun.X.(*ast.Ident); ok {
			if obj, ok := pkg.Info.Uses[base].(*types.PkgName); ok {
				if detail, bad := allocatingStdlibCall(obj.Imported().Path(), fun.Sel.Name); bad && !inSpawn {
					node.Allocs = append(node.Allocs, AllocSite{Pos: call.Pos(), Kind: AllocFmt, Detail: detail})
				}
			}
		}
		if fun.Sel.Name == "Lock" || fun.Sel.Name == "RLock" {
			if muSel, ok := fun.X.(*ast.SelectorExpr); ok {
				node.Locks = append(node.Locks, LockOp{
					Pos:   call.Pos(),
					Base:  types.ExprString(muSel.X),
					Mutex: muSel.Sel.Name,
					Read:  fun.Sel.Name == "RLock",
				})
			}
		}
	}
	// Conversions that copy: string(bytes), []byte(s), []rune(s).
	if !inSpawn {
		if site, ok := conversionAlloc(pkg, call); ok {
			node.Allocs = append(node.Allocs, site)
		}
	}
	// Interface boxing: a concrete non-pointer argument passed to an
	// interface parameter is wrapped in a heap-allocated box.
	if !inSpawn {
		for _, arg := range call.Args {
			if pos, detail, boxed := boxesArg(pkg, call, arg); boxed {
				node.Allocs = append(node.Allocs, AllocSite{Pos: pos, Kind: AllocBox, Detail: detail})
			}
		}
	}
}

// allocatingStdlibCall reports stdlib functions known to allocate on
// every call. The list is deliberately small and certain: fmt and errors
// always build new values; the named strings/strconv helpers return
// fresh strings. Unknown stdlib calls are not flagged (documented
// unsoundness — the check errs toward silence outside the module).
func allocatingStdlibCall(pkgPath, name string) (string, bool) {
	switch pkgPath {
	case "fmt":
		return "fmt." + name, true
	case "errors":
		if name == "New" {
			return "errors.New", true
		}
	case "strings":
		switch name {
		case "Join", "Split", "Repeat", "Replace", "ReplaceAll", "Map",
			"ToUpper", "ToLower", "Fields", "Title", "TrimFunc":
			return "strings." + name, true
		}
	case "strconv":
		if !strings.HasPrefix(name, "Append") && (strings.HasPrefix(name, "Format") || name == "Itoa" || name == "Quote") {
			return "strconv." + name, true
		}
	}
	return "", false
}

// compositeAlloc classifies a composite literal: slice and map literals
// always allocate backing storage; struct literals by value do not
// (address-taken struct literals are reported by the &-operand walk in
// the parent UnaryExpr, folded in here via the types view).
func compositeAlloc(pkg *Package, lit *ast.CompositeLit) (AllocSite, bool) {
	if tv, ok := pkg.Info.Types[lit]; ok && tv.Type != nil {
		switch tv.Type.Underlying().(type) {
		case *types.Slice, *types.Map:
			return AllocSite{Pos: lit.Pos(), Kind: AllocCompLit, Detail: tv.Type.String()}, true
		}
		return AllocSite{}, false
	}
	// No type info (broken package): fall back to the syntax.
	switch lit.Type.(type) {
	case *ast.ArrayType:
		if at := lit.Type.(*ast.ArrayType); at.Len == nil {
			return AllocSite{Pos: lit.Pos(), Kind: AllocCompLit, Detail: types.ExprString(lit.Type)}, true
		}
	case *ast.MapType:
		return AllocSite{Pos: lit.Pos(), Kind: AllocCompLit, Detail: types.ExprString(lit.Type)}, true
	}
	return AllocSite{}, false
}

// conversionAlloc reports string([]byte), []byte(string), []rune(string)
// conversions, which copy their operand.
func conversionAlloc(pkg *Package, call *ast.CallExpr) (AllocSite, bool) {
	if len(call.Args) != 1 {
		return AllocSite{}, false
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return AllocSite{}, false
	}
	to, from := tv.Type, pkg.Info.Types[call.Args[0]].Type
	if to == nil || from == nil {
		return AllocSite{}, false
	}
	if isStringType(to) && isByteOrRuneSlice(from) || isByteOrRuneSlice(to) && isStringType(from) {
		return AllocSite{Pos: call.Pos(), Kind: AllocConvert, Detail: from.String() + " to " + to.String()}, true
	}
	return AllocSite{}, false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// boxesArg reports whether passing arg in call wraps a concrete
// non-pointer value in an interface (the classic hidden allocation).
// Nil literals and values that are already interfaces or pointers do
// not allocate.
func boxesArg(pkg *Package, call *ast.CallExpr, arg ast.Expr) (token.Pos, string, bool) {
	sig := callSignature(pkg, call)
	if sig == nil {
		return token.NoPos, "", false
	}
	idx := -1
	for i, a := range call.Args {
		if a == arg {
			idx = i
			break
		}
	}
	if idx < 0 {
		return token.NoPos, "", false
	}
	var paramT types.Type
	n := sig.Params().Len()
	switch {
	case sig.Variadic() && idx >= n-1:
		if call.Ellipsis.IsValid() {
			return token.NoPos, "", false // forwarding a slice, no per-arg boxing
		}
		paramT = sig.Params().At(n - 1).Type().(*types.Slice).Elem()
	case idx < n:
		paramT = sig.Params().At(idx).Type()
	default:
		return token.NoPos, "", false
	}
	if _, isIface := paramT.Underlying().(*types.Interface); !isIface {
		return token.NoPos, "", false
	}
	argTV, ok := pkg.Info.Types[arg]
	if !ok || argTV.Type == nil || argTV.IsNil() {
		return token.NoPos, "", false
	}
	switch argTV.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return token.NoPos, "", false // pointer-shaped: boxed without copying
	}
	return arg.Pos(), argTV.Type.String(), true
}

// callSignature resolves the signature of a call's callee, nil for
// builtins, conversions, and untyped packages.
func callSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// callArgType renders the type argument of a make/new call for finding
// details ("make([]bw.Bits)").
func callArgType(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	return types.ExprString(call.Args[0])
}

func isStringExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type)
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
