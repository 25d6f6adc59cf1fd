// Command doclint enforces the repository's documentation floor and
// its reachability floor, and `make check` fails on what it finds.
// Three rules:
//
//  1. Every Go package must carry a package doc comment (on any
//     non-test file) — the one-paragraph answer to "what is this
//     subsystem and why does it exist".
//  2. In the strict packages — the communication machine
//     (internal/comm), the solver recurrences (internal/core) and the
//     directive executor (internal/hpfexec) — every exported top-level
//     identifier and every exported method must carry a doc comment.
//     These are the packages other layers program against; an exported
//     name without a contract is an API nobody can hold.
//  3. Every exported identifier in internal/ is reached from non-test
//     code. Every non-test package of the module (benchmark/, cmd/ and
//     examples/ included) is type-checked with go/types, the standard
//     library read from the build cache's export data (`go list
//     -export`), so a use counts only for the object it resolves to,
//     never for another of the same spelling. A package-level func,
//     type, var or const is reached when a non-test use outside its own
//     declaration resolves to it; a use in a method's receiver does
//     not count. A method is reached when a non-test selection resolves
//     to it, when a non-test call resolves to a method of an interface
//     its type implements, or when it is one of the standard library's
//     interface methods in wellKnownMethods, which the standard library
//     calls on the module's behalf. Anything else is code only tests
//     reach: delete it, or name it in allowed with its reason.
//
// Run from the module root: `go run ./cmd/doclint` (the docs-lint
// Makefile target). Exit status 1 lists every violation; a package go
// list cannot load or go/types cannot check is one too.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	pathpkg "path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// strictPkgs lists the directories held to rule 2.
var strictPkgs = map[string]bool{
	"internal/comm":    true,
	"internal/core":    true,
	"internal/hpfexec": true,
}

// wellKnownMethods are the standard library's interface methods (fmt,
// error, errors, sort) that rule 3 counts as reached without a caller
// in the module.
var wellKnownMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true,
}

// allowKinds are the reasons an exported name may be reached only from
// tests. Every allowed entry's reason starts with one of them:
// "reference:" is a reference implementation or fixture a test compares
// against, and "accessor:" a read-only view a guarantee test asserts
// on. Any other test-only code is deleted, together with the tests that
// check only it.
var allowKinds = []string{"reference:", "accessor:"}

// allowed is rule 3's allow-list, keyed "dir.Name" for a package-level
// identifier and "dir.Type.Method" for a method.
var allowed = map[string]string{
	"internal/topology.RingAllgatherTime": "reference: the closed form TestCostFormulas and comm's TestAllgatherMatchesAnalytic hold the simulated ring to",
	"internal/sparse.Figure1Matrix":       "reference: the paper's Figure 1 matrix the hpf, partition and sparse tests distribute",
	"internal/core.Identity":              "reference: the no-op preconditioner TestPCGIdentityMatchesCG holds PCG to CG with; TestCGSteadyStateIterationsNoAllocs runs PCG under it",
	"internal/hpf.Format":                 "reference: the printer FuzzParse and the format tests round-trip every parsed program through",
	"internal/order.Permutation.Valid":    "reference: the check the RCM tests hold every RCM ordering to",
	"internal/sparse.CSR.Validate":        "reference: the structural invariants FuzzGeneratorByName, FuzzReadMatrixMarket and TestCOOCSRQuick hold every built CSR to",
	"internal/grid.Brick3.Coords":         "reference: the point-to-coordinate map mg's assembled levels, the reference TestLevelKernelsMatchAssembled holds the V-cycle to, are built with",

	"internal/spmv.RowBlockCSR.LocalNNZ":         "accessor: TestOperatorMetadata reads the per-rank stored entries",
	"internal/spmv.ColBlockCSC.LocalNNZ":         "accessor: TestOperatorMetadata reads the per-rank stored entries",
	"internal/spmv.RowBlockCSRPowers.LocalNNZ":   "accessor: TestPowersStatsMatchesKernel and TestGhostMetadata read the ring-0 stored entries",
	"internal/spmv.RowBlockCSRPowers.OverlapNNZ": "accessor: TestPowersStatsMatchesKernel reads the replicated ring entries",
	"internal/mfree.Operator.LocalNNZ":           "accessor: TestBitIdenticalToAssembled and mg's assembled comparison read the per-rank stencil entries",
	"internal/trace.CommMatrix.RowTotals":        "accessor: TestMatrixMatchesProcStats and TestMatrixMatchesRunStatsCSRSpMV hold per-sender bytes to ProcStats",
	"internal/trace.CommMatrix.ColTotals":        "accessor: TestMatrixMatchesProcStats and TestMatrixMatchesRunStatsCSRSpMV hold per-receiver bytes to ProcStats",
	"internal/trace.Recorder.RankEvents":         "accessor: the recorder tests and comm's TestIallreduceTracerSpans read one rank's recording order",
	"internal/comm.ReduceHandle.Cost":            "accessor: TestIallreduceOverlapChargesMax holds Wait's hidden and exposed shares to the blocking cost",
	"internal/hpfexec.Prepared.Strategy":         "accessor: TestRegistryWarmSStepHit and TestRegistryWarmPipelinedHit read the variant a handle carries before any solve",
	"internal/mfree.Operator.NGhosts":            "accessor: TestGhostCountMatchesInspector holds the geometric ghost count to the inspector's",
}

func main() {
	problems, err := lint(".", allowed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(1)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doclint:", p)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
}

// listed is one package as `go list -json` prints it.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string // the build cache's export data, with -export
	Standard   bool
	Error      *struct{ Err string }
}

// pkg is one module package's non-test files, type-checked.
type pkg struct {
	dir   string // slash path relative to the module root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// lint runs all three rules over the module rooted at root and returns
// every violation, positions relative to root. A package go list
// reports broken, a parse error and a type error are violations too.
func lint(root string, allow map[string]string) ([]string, error) {
	list, err := goList(root, "-e", "-deps", "./...")
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	var std []string
	for _, l := range list {
		if l.Standard {
			std = append(std, l.ImportPath)
		}
	}
	exports := map[string]string{}
	if len(std) > 0 {
		built, err := goList(root, append([]string{"-export"}, std...)...)
		if err != nil {
			return nil, err
		}
		for _, l := range built {
			exports[l.ImportPath] = l.Export
		}
	}
	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	var problems []string
	checked := map[string]*types.Package{} // module import path -> package
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p, ok := checked[path]; ok {
				return p, nil
			}
			return gc.Import(path)
		}),
		Error: func(err error) { problems = append(problems, err.Error()) },
	}
	var pkgs []*pkg
	for _, l := range list { // go list -deps lists a package after its imports
		if l.Standard {
			continue
		}
		if l.Error != nil {
			problems = append(problems, l.Error.Err)
		}
		if len(l.GoFiles) == 0 {
			continue
		}
		rel, err := filepath.Rel(abs, l.Dir)
		if err != nil {
			return nil, err
		}
		p := &pkg{dir: filepath.ToSlash(rel)}
		hasPkgDoc := false
		for _, name := range l.GoFiles {
			src, err := os.ReadFile(filepath.Join(l.Dir, name))
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, pathpkg.Join(p.dir, name), src, parser.ParseComments)
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			p.files = append(p.files, f)
			if f.Doc != nil {
				hasPkgDoc = true
			}
			if strictPkgs[p.dir] {
				problems = append(problems, lintExported(fset, f)...)
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package has no package doc comment", p.dir))
		}
		p.info = &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
		p.types, _ = conf.Check(l.ImportPath, fset, p.files, p.info)
		checked[l.ImportPath] = p.types
		pkgs = append(pkgs, p)
	}
	problems = append(problems, unreached(fset, pkgs, allow)...)
	sort.Strings(problems)
	return problems, nil
}

// goList runs `go list -json` with args in the module rooted at root.
func goList(root string, args ...string) ([]listed, error) {
	args = append([]string{"list", "-json=ImportPath,Dir,GoFiles,Export,Standard,Error"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	var list []listed
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var l listed
		if err := dec.Decode(&l); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		list = append(list, l)
	}
	return list, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// unreached is rule 3: every exported identifier declared in internal/
// that no non-test code reaches and allow does not name, plus every
// allow entry that is malformed, names nothing, or is reached after all.
func unreached(fset *token.FileSet, pkgs []*pkg, allow map[string]string) []string {
	reached := map[types.Object]bool{}
	ifaceUses := map[*types.Interface]map[string]bool{} // interface -> methods called on it
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				// A use inside the declaration of what it names, or in
				// a method's receiver, does not reach it.
				var own []ast.Node
				var self []types.Object
				switch d := decl.(type) {
				case *ast.FuncDecl:
					own, self = []ast.Node{d.Type}, []types.Object{p.info.Defs[d.Name]}
					if d.Body != nil {
						own = append(own, d.Body)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{sp.Name}
						case *ast.ValueSpec:
							names = sp.Names
						}
						own = append(own, spec)
						for _, id := range names {
							self = append(self, p.info.Defs[id])
						}
					}
				}
				for _, n := range own {
					ast.Inspect(n, func(n ast.Node) bool {
						id, ok := n.(*ast.Ident)
						if !ok {
							return true
						}
						obj := origin(p.info.Uses[id])
						if obj == nil || slices.Contains(self, obj) {
							return true
						}
						reached[obj] = true
						if fn, ok := obj.(*types.Func); ok {
							if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
								iface := recv.Type().Underlying().(*types.Interface)
								if ifaceUses[iface] == nil {
									ifaceUses[iface] = map[string]bool{}
								}
								ifaceUses[iface][fn.Name()] = true
							}
						}
						return true
					})
				}
			}
		}
	}
	// A method called through an interface reaches the method every
	// module type that implements the interface runs for it.
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			for iface, methods := range ifaceUses {
				t := types.Type(types.NewPointer(tn.Type()))
				if !types.Implements(t, iface) {
					continue
				}
				for m := range methods {
					obj, _, _ := types.LookupFieldOrMethod(t, false, tn.Pkg(), m)
					reached[origin(obj)] = true
				}
			}
		}
	}

	var problems []string
	exists := map[string]bool{}
	judge := func(obj types.Object, key, kind string) {
		exists[key] = true
		reason, listed := allow[key]
		ok := reached[obj] || kind == "method" && wellKnownMethods[obj.Name()]
		switch {
		case listed && ok:
			problems = append(problems, fmt.Sprintf("allow-list entry %s (%q): reached from non-test code; drop the entry", key, reason))
		case !listed && !ok:
			pos := fset.Position(obj.Pos())
			problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s is reached only from tests; delete it or allow-list it with its reason",
				pos.Filename, pos.Line, kind, key))
		}
	}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				judge(obj, p.dir+"."+name, kindOf(obj))
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named, _ := tn.Type().(*types.Named)
				for i := 0; named != nil && i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						judge(m, p.dir+"."+name+"."+m.Name(), "method")
					}
				}
			}
		}
	}
	for key, reason := range allow {
		if !exists[key] {
			problems = append(problems, fmt.Sprintf("allow-list entry %s: no such exported identifier in internal/", key))
		}
		if !hasKind(reason) {
			problems = append(problems, fmt.Sprintf("allow-list entry %s: reason %q must start with one of %s", key, reason, strings.Join(allowKinds, " ")))
		}
	}
	return problems
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// kindOf names a package-level object's kind as rule 3 reports it.
func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// lintExported reports every exported top-level identifier in f that
// lacks a doc comment. A grouped const/var/type declaration's doc
// covers all its specs; a spec's own doc covers just that spec.
func lintExported(fset *token.FileSet, f *ast.File) []string {
	var problems []string
	missing := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			kind, name := "function", d.Name.Name
			if d.Recv != nil {
				recv := receiverName(d.Recv)
				if recv != "" && !ast.IsExported(recv) {
					continue // method on an unexported type: internal surface
				}
				kind, name = "method", recv+"."+d.Name.Name
			}
			missing(d.Pos(), kind, name)
		case *ast.GenDecl:
			if d.Doc != nil {
				continue
			}
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if sp.Name.IsExported() && sp.Doc == nil && sp.Comment == nil {
						missing(sp.Pos(), "type", sp.Name.Name)
					}
				case *ast.ValueSpec:
					if sp.Doc != nil || sp.Comment != nil {
						continue
					}
					for _, name := range sp.Names {
						if name.IsExported() {
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							missing(name.Pos(), kind, name.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// hasKind reports whether an allow-list reason names one of allowKinds.
func hasKind(reason string) bool {
	for _, k := range allowKinds {
		if strings.HasPrefix(reason, k) {
			return true
		}
	}
	return false
}

// receiverName extracts the receiver's base type name ("" if unnamed).
func receiverName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}
