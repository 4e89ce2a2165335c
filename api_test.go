package jessica2_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// apiAllowlist holds the exported names under internal/ that
// TestNoTestOnlyAPI accepts although no non-test file uses them (for a
// field: writes it), each with the reason it stays.
var apiAllowlist = map[string]string{
	"experiments.Spec.DistributedTCM": "paper-bh's Out carries it through the bench's dispatch round trip, so deleting it moves dispatch.bytes",
	"gos.Kernel.Run":                  "the bare-kernel run that tests in many packages drive workloads with",
	"gos.Kernel.CheckOALConservation": "the OAL conservation invariant; tests check it in every failure and overload cell",
	"runner.JobPanic.Unwrap":          "errors.Is and errors.As call it through an interface the standard library declares",
	"session.Report.GOSBytes":         "public through the facade's Report alias",
	"session.Report.OALBytes":         "public through the facade's Report alias",
	"session.Session.Done":            "public through the facade's Session alias",
	"session.Session.Fingerprint":     "public through the facade's Session alias",
	"session.Session.RunUntil":        "public through the facade's Session alias",
	"tcm.Map.Add":                     "bench/check_test.go builds its maps with it, and bench/ changes only with the benchmark",
}

// TestNoTestOnlyAPI fails on exported API under internal/ that only tests
// keep alive: a declaration (function, type, variable, constant or method)
// that no non-test file of either module uses, and a struct field that no
// non-test file writes. It type-checks the non-test files of the root
// module and of bench/, so a change under internal/ that breaks the
// benchmark's build fails here too.
//
// A method also counts as used when its type satisfies an interface that
// non-test code declares or names: a named or literal interface of its
// own, or one it names from elsewhere, such as error or fmt.Stringer. A
// use of a generic instance counts for its generic declaration. A field counts as written by
// an assignment, ++ or --, &, an unkeyed composite literal, a key in a
// keyed one, or a pointer-method call on it; one written through x.F[i] or
// x.F.G counts too. Embedded fields are skipped.
func TestNoTestOnlyAPI(t *testing.T) {
	flagged, err := scanTestOnlyAPI(map[string]string{"jessica2": ".", "jessica2/bench": "bench"})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(flagged))
	for name := range flagged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := apiAllowlist[name]; !ok {
			t.Errorf("%s: %s; delete it, move it into the tests that use it, or allowlist it with a reason", name, flagged[name])
		}
	}
	for name := range apiAllowlist {
		if _, ok := flagged[name]; !ok {
			t.Errorf("allowlist entry %s matches nothing the scan flags; delete the entry", name)
		}
	}
}

// apiPkg is one type-checked package: its non-test files only.
type apiPkg struct {
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// apiLoader type-checks the modules' packages from source. Standard
// library imports go to the source importer.
type apiLoader struct {
	fset *token.FileSet
	dirs map[string]*build.Package // the modules' packages by import path
	pkgs map[string]*apiPkg
	std  types.Importer
}

// scanTestOnlyAPI loads every package of the given modules (module path ->
// root directory) and returns each flagged name with what it lacks.
func scanTestOnlyAPI(modules map[string]string) (map[string]string, error) {
	fset := token.NewFileSet()
	l := &apiLoader{
		fset: fset,
		dirs: map[string]*build.Package{},
		pkgs: map[string]*apiPkg{},
		std:  importer.ForCompiler(fset, "source", nil),
	}
	for modPath, root := range modules {
		err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			rel, err := filepath.Rel(root, dir)
			if err != nil {
				return err
			}
			path := modPath
			if rel != "." {
				for p, r := range modules {
					if p != modPath && filepath.Clean(r) == filepath.Clean(dir) {
						return filepath.SkipDir // another module's root
					}
				}
				path += "/" + filepath.ToSlash(rel)
			}
			bp, err := build.Default.ImportDir(dir, 0)
			if _, none := err.(*build.NoGoError); none || err == nil && len(bp.GoFiles) == 0 {
				return nil // no package, or tests only
			}
			l.dirs[path] = bp
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	paths := make([]string, 0, len(l.dirs))
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}
	return l.flag(), nil
}

func (l *apiLoader) Import(path string) (*types.Package, error) {
	bp, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	p := &apiPkg{info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	var err error
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.types, nil
}

// flag returns the exported names under internal/ that no non-test file
// uses, and the exported fields there that no non-test file writes.
func (l *apiLoader) flag() map[string]string {
	used := map[types.Object]bool{}
	written := map[types.Object]bool{}
	var ifaces []*types.Interface
	addIface := func(obj types.Object) {
		if tn, ok := obj.(*types.TypeName); ok && !isGeneric(tn.Type()) {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	// instances holds, for each generic type, the instances non-test code
	// names.
	instances := map[*types.Named][]*types.Named{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			used[apiOrigin(obj)] = true
			addIface(obj)
		}
		for _, obj := range p.info.Defs {
			addIface(obj)
		}
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok {
				ifaces = append(ifaces, tv.Type.Underlying().(*types.Interface))
			}
		}
		for _, inst := range p.info.Instances {
			if named, ok := inst.Type.(*types.Named); ok {
				instances[named.Origin()] = append(instances[named.Origin()], named)
			}
		}
		for _, f := range p.files {
			markWrites(p.info, f, written)
		}
	}

	flagged := map[string]string{}
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.types.Path(), "jessica2/internal/") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				flagged[p.types.Name()+"."+name] = "no non-test file uses it"
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(named, instances[named], m.Name(), ifaces) {
					flagged[p.types.Name()+"."+name+"."+m.Name()] = "no non-test file uses it"
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && !written[f] {
					flagged[p.types.Name()+"."+name+"."+f.Name()] = "no non-test file writes it"
				}
			}
		}
	}
	return flagged
}

// satisfies reports whether named (through one of its instances, if it is
// generic), or a pointer to it, implements one of ifaces that has a method
// called method.
func satisfies(named *types.Named, insts []*types.Named, method string, ifaces []*types.Interface) bool {
	if !isGeneric(named) {
		insts = []*types.Named{named}
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != method {
				continue
			}
			for _, t := range insts {
				if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
					return true
				}
			}
		}
	}
	return false
}

func isGeneric(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.TypeParams().Len() > 0
}

// apiOrigin maps a field or method of a generic instance to its generic
// declaration.
func apiOrigin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// markWrites adds to written every struct field that f writes.
func markWrites(info *types.Info, f *ast.File, written map[types.Object]bool) {
	// mark walks an operand that is written, or whose address is taken,
	// down to its root, marking each field it passes through.
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
					written[apiOrigin(sel.Obj())] = true
				}
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				mark(n.Key)
				mark(n.Value)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(n.X)
			}
		case *ast.SelectorExpr:
			// A pointer method called on an addressable value takes its
			// address.
			sel, ok := info.Selections[n]
			if !ok || sel.Kind() != types.MethodVal {
				break
			}
			recv := sel.Obj().Type().(*types.Signature).Recv()
			if recv == nil {
				break
			}
			if _, ptrRecv := recv.Type().(*types.Pointer); !ptrRecv {
				break
			}
			if _, ptrX := info.Types[n.X].Type.Underlying().(*types.Pointer); !ptrX {
				mark(n.X)
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok || len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
				for i := 0; i < st.NumFields(); i++ {
					written[apiOrigin(st.Field(i))] = true
				}
				break
			}
			for _, elt := range n.Elts {
				if id, ok := elt.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
					written[apiOrigin(info.Uses[id])] = true
				}
			}
		}
		return true
	})
}
