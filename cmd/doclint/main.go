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
//     code. A package-level func, type, var or const is reached when
//     another package's non-test file selects it as pkg.Name, or a
//     non-test file of its own package names it outside its
//     declaration. A method is reached when some non-test file selects
//     .Name on a value (pkg.Name on an imported package selects no
//     method), when some interface type in the module declares a method
//     of that name, or when it is one of the standard library's
//     interface methods in wellKnownMethods. Anything else is code only
//     tests reach: delete it, or name it in allowed with its reason.
//
// Run from the module root: `go run ./cmd/doclint` (the docs-lint
// Makefile target). Exit status 1 lists every violation.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strconv"
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

	"internal/spmv.RowBlockCSR.LocalNNZ":         "accessor: TestOperatorMetadata reads the per-rank stored entries",
	"internal/spmv.ColBlockCSC.LocalNNZ":         "accessor: TestOperatorMetadata reads the per-rank stored entries",
	"internal/spmv.RowBlockCSRPowers.LocalNNZ":   "accessor: TestPowersStatsMatchesKernel and TestGhostMetadata read the ring-0 stored entries",
	"internal/spmv.RowBlockCSRPowers.OverlapNNZ": "accessor: TestPowersStatsMatchesKernel reads the replicated ring entries",
	"internal/mfree.Operator.LocalNNZ":           "accessor: TestBitIdenticalToAssembled and mg's assembled comparison read the per-rank stencil entries",
	"internal/mg.Problem.CoarseDirect":           "accessor: TestCoarseModeSelection and the assembled comparator read which bottom solve a problem took",
	"internal/trace.CommMatrix.RowTotals":        "accessor: TestMatrixMatchesProcStats and TestMatrixMatchesRunStatsCSRSpMV hold per-sender bytes to ProcStats",
	"internal/trace.CommMatrix.ColTotals":        "accessor: TestMatrixMatchesProcStats and TestMatrixMatchesRunStatsCSRSpMV hold per-receiver bytes to ProcStats",
	"internal/trace.Recorder.RankEvents":         "accessor: the recorder tests and comm's TestIallreduceTracerSpans read one rank's recording order",
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

// pkg is one directory's non-test files.
type pkg struct {
	dir   string // slash path relative to the module root
	name  string
	files []*ast.File
}

// lint runs all three rules over the module rooted at root and returns
// every violation, positions relative to root.
func lint(root string, allow map[string]string) ([]string, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	paths := map[string][]string{} // dir -> non-test .go files
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		paths[dir] = append(paths[dir], rel)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var problems []string
	dirs := make([]string, 0, len(paths))
	for dir := range paths {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	fset := token.NewFileSet()
	var pkgs []*pkg
	for _, dir := range dirs {
		p := &pkg{dir: dir}
		hasPkgDoc := false
		for _, rel := range paths[dir] {
			src, err := os.ReadFile(filepath.Join(root, rel))
			if err != nil {
				return nil, err
			}
			f, err := parser.ParseFile(fset, filepath.ToSlash(rel), src, parser.ParseComments)
			if err != nil {
				problems = append(problems, err.Error())
				continue
			}
			p.name = f.Name.Name
			p.files = append(p.files, f)
			if f.Doc != nil {
				hasPkgDoc = true
			}
			if strictPkgs[dir] {
				problems = append(problems, lintExported(fset, f)...)
			}
		}
		if !hasPkgDoc {
			problems = append(problems, fmt.Sprintf("%s: package has no package doc comment", dir))
		}
		pkgs = append(pkgs, p)
	}
	return append(problems, unreached(fset, modPath, pkgs, allow)...), nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
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

// exported is one exported declaration rule 3 judges.
type exported struct {
	key    string // "dir.Name" or "dir.Type.Method"
	kind   string // func, type, var, const or method
	pos    token.Pos
	method string // the method name; "" for a package-level identifier
}

// unreached is rule 3: every exported identifier declared in internal/
// that no non-test code reaches and allow does not name, plus every
// allow entry that is malformed, names nothing, or is reached after all.
func unreached(fset *token.FileSet, modPath string, pkgs []*pkg, allow map[string]string) []string {
	byPath := map[string]*pkg{}
	for _, p := range pkgs {
		path := modPath
		if p.dir != "." {
			path += "/" + p.dir
		}
		byPath[path] = p
	}

	var decls []exported
	named := map[string]bool{}    // "dir.Name" reached
	selected := map[string]bool{} // every .Name any selector picks
	declared := map[string]bool{} // every interface method name
	for _, p := range pkgs {
		internal := strings.HasPrefix(p.dir, "internal/")
		for _, f := range p.files {
			imports := map[string]string{} // local name -> module package dir
			pkgNames := map[string]bool{}  // every import's local name
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				local := pathpkg.Base(path)
				q := byPath[path]
				if q != nil {
					local = q.name
				}
				if imp.Name != nil {
					local = imp.Name.Name
				}
				pkgNames[local] = true
				if q != nil {
					imports[local] = q.dir
				}
			}
			skip := map[*ast.Ident]bool{} // idents that declare, not reference
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					skip[d.Name] = true
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								skip[id] = true
							}
							return true
						})
					}
					if !internal || !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						decls = append(decls, exported{key: p.dir + "." + d.Name.Name, kind: "func", pos: d.Name.Pos()})
					} else {
						decls = append(decls, exported{key: p.dir + "." + receiverName(d.Recv) + "." + d.Name.Name, kind: "method", pos: d.Name.Pos(), method: d.Name.Name})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var names []*ast.Ident
						kind := "type"
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{sp.Name}
						case *ast.ValueSpec:
							names, kind = sp.Names, d.Tok.String()
						}
						for _, id := range names {
							skip[id] = true
							if internal && id.IsExported() {
								decls = append(decls, exported{key: p.dir + "." + id.Name, kind: kind, pos: id.Pos()})
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					skip[n.Sel] = true
					// pkg.Name names a package member, not a method:
					// utf8.Valid reaches no method called Valid.
					if id, ok := n.X.(*ast.Ident); ok && pkgNames[id.Name] {
						if dir, ok := imports[id.Name]; ok {
							named[dir+"."+n.Sel.Name] = true
						}
						return false
					}
					selected[n.Sel.Name] = true
				case *ast.StructType:
					for _, field := range n.Fields.List {
						for _, id := range field.Names {
							skip[id] = true
						}
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							skip[id] = true
							declared[id.Name] = true
						}
					}
				case *ast.Ident:
					if !skip[n] {
						named[p.dir+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}

	reached := func(d exported) bool {
		if d.method == "" {
			return named[d.key]
		}
		return selected[d.method] || declared[d.method] || wellKnownMethods[d.method]
	}
	var problems []string
	exists := map[string]bool{}
	for _, d := range decls {
		exists[d.key] = true
		reason, listed := allow[d.key]
		switch {
		case listed && reached(d):
			problems = append(problems, fmt.Sprintf("allow-list entry %s (%q): reached from non-test code; drop the entry", d.key, reason))
		case !listed && !reached(d):
			pos := fset.Position(d.pos)
			problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s is reached only from tests; delete it or allow-list it with its reason",
				pos.Filename, pos.Line, d.kind, d.key))
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
	sort.Strings(problems)
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
