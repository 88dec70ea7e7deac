package occusim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed lists the exported names under internal/ that no
// non-test Go file calls and that stay anyway. A key is pkg.Name for a
// package-level name, pkg.Type.Method for a method, or a bare method
// name for every method of that name.
var uncalledAllowed = map[string]string{
	// Methods the standard library calls through an interface: encoding/json,
	// errors, sort, container/heap and fmt reach them, no selector does.
	"MarshalJSON":   "encoding/json.Marshaler",
	"UnmarshalJSON": "encoding/json.Unmarshaler",
	"Error":         "error",
	"Unwrap":        "errors.Unwrap",
	"Is":            "errors.Is",
	"As":            "errors.As",
	"Len":           "sort.Interface, heap.Interface",
	"Less":          "sort.Interface, heap.Interface",
	"Swap":          "sort.Interface, heap.Interface",
	"Push":          "heap.Interface",
	"Pop":           "heap.Interface",
	"String":        "fmt.Stringer",

	"raceflag.Enabled": "build-tag twin: race.go and norace.go each set it, and only tests read it",

	"ble.World.SetCulling": "switches off culling for the exhaustive reference run cull_test compares against",
	"ble.World.Culled":     "counts what culling skipped, for the same reference run",

	"sim.Engine.Cancel":  "kept for the injected control-plane clock (ROADMAP item 24)",
	"sim.Engine.Pending": "kept for the injected control-plane clock (ROADMAP item 24)",
	"sim.Event.Canceled": "kept for the injected control-plane clock (ROADMAP item 24)",

	"fleet.Gateway.MarkDown": "the drills' failure hook until the fault shard of ROADMAP item 24",
	"fleet.Gateway.MarkUp":   "the drills' failure hook until the fault shard of ROADMAP item 24",
}

// exportedDecl is one exported name declared in a non-test file under
// internal/: a package-level name (recv empty) or a method.
type exportedDecl struct {
	pkgPath, pkg, recv, name string
	pos                      token.Position
}

func (d exportedDecl) key() string {
	if d.recv == "" {
		return d.pkg + "." + d.name
	}
	return d.pkg + "." + d.recv + "." + d.name
}

// TestNoUncalledExportedNames keeps library names honest: an exported
// name under internal/ must be used by some non-test Go file of the
// module (root, cmd/, benchmark/ or internal/), or be on uncalledAllowed
// with its reason. A name only its own tests call is dead code with a
// test attached; delete both.
//
// A package-level name is used by pkg.Name in a file that imports its
// package, or by a bare Name in a non-test file of its own package; a
// field key in a struct literal (Region{UUID: u}) is not a use. A
// method is used by any .Name selector whose left side is not an
// import name, since the scan has no types to tell receivers apart: a
// field selector x.Name counts as a use of every method called Name.
func TestNoUncalledExportedNames(t *testing.T) {
	const module = "occusim"
	fset := token.NewFileSet()
	type parsedFile struct {
		f       *ast.File
		pkgPath string
	}
	var files []parsedFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsedFile{f, path.Join(module, filepath.ToSlash(filepath.Dir(p)))})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	structTypes := map[string]bool{} // pkgPath + "." + TypeName
	for _, pf := range files {
		for _, decl := range pf.f.Decls {
			if decl, ok := decl.(*ast.GenDecl); ok {
				for _, spec := range decl.Specs {
					if spec, ok := spec.(*ast.TypeSpec); ok {
						if _, ok := spec.Type.(*ast.StructType); ok {
							structTypes[pf.pkgPath+"."+spec.Name.Name] = true
						}
					}
				}
			}
		}
	}
	var decls []exportedDecl
	usedPkgNames := map[string]bool{} // pkgPath + "." + Name
	usedMethods := map[string]bool{}
	for _, pf := range files {
		if strings.HasPrefix(pf.pkgPath, module+"/internal/") {
			decls = append(decls, exportedDecls(fset, pf.f, pf.pkgPath)...)
		}
		recordUses(pf.f, pf.pkgPath, structTypes, usedPkgNames, usedMethods)
	}

	var uncalled []string
	sheltered := map[string]bool{}
	for _, d := range decls {
		used := usedPkgNames[d.pkgPath+"."+d.name]
		if d.recv != "" {
			used = usedMethods[d.name]
		}
		switch {
		case used:
		case uncalledAllowed[d.key()] != "":
			sheltered[d.key()] = true
		case d.recv != "" && uncalledAllowed[d.name] != "":
		default:
			uncalled = append(uncalled, d.pos.String()+": "+d.key())
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("%s is exported but no non-test Go file uses it: delete it with its tests, or allow it in uncalledAllowed with the reason", u)
	}
	// A qualified entry that shelters nothing is stale: its name went or
	// found a caller, and the entry would hide whatever takes the name next.
	for key := range uncalledAllowed {
		if strings.Contains(key, ".") && !sheltered[key] {
			t.Errorf("uncalledAllowed[%q] shelters no uncalled name: delete the entry", key)
		}
	}
}

// exportedDecls returns the exported package-level names and exported
// methods f declares.
func exportedDecls(fset *token.FileSet, f *ast.File, pkgPath string) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident, recv string) {
		if id.IsExported() {
			out = append(out, exportedDecl{pkgPath: pkgPath, pkg: f.Name.Name, recv: recv, name: id.Name, pos: fset.Position(id.Pos())})
		}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			recv := ""
			if decl.Recv != nil && len(decl.Recv.List) > 0 {
				recv = receiverType(decl.Recv.List[0].Type)
			}
			add(decl.Name, recv)
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "")
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, "")
					}
				}
			}
		}
	}
	return out
}

// receiverType names a method's receiver type: T for T, *T, T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// recordUses adds to usedPkgNames every pkg.Name and own-package bare
// Name that f uses, and to usedMethods every other selector's name.
// structTypes holds pkgPath.TypeName for every struct type the module
// declares, to tell a struct literal's field keys from map and array keys.
func recordUses(f *ast.File, pkgPath string, structTypes, usedPkgNames, usedMethods map[string]bool) {
	imports := map[string]string{} // local name → import path
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(p)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = p
	}
	// isStruct reports whether a composite literal of type typ is a struct
	// literal, whose keys are field names. A type it cannot resolve
	// (a named slice or map, a generic parameter) is not, so its keys
	// still count as uses.
	isStruct := func(typ ast.Expr) bool {
		for {
			switch x := typ.(type) {
			case *ast.StructType:
				return true
			case *ast.StarExpr:
				typ = x.X
			case *ast.IndexExpr:
				typ = x.X
			case *ast.IndexListExpr:
				typ = x.X
			case *ast.Ident:
				return structTypes[pkgPath+"."+x.Name]
			case *ast.SelectorExpr:
				pkg, ok := x.X.(*ast.Ident)
				return ok && structTypes[imports[pkg.Name]+"."+x.Sel.Name]
			default:
				return false
			}
		}
	}
	// elided holds the type an enclosing slice, array or map literal gives
	// an element (or map key) literal written without its type.
	elided := map[*ast.CompositeLit]ast.Expr{}

	// Declaring a name, a field or a parameter is not a use of it, and
	// neither is the right side of a selector nor a struct literal's key.
	skip := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			skip[decl.Name] = true
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					skip[spec.Name] = true
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						skip[id] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.CompositeLit:
			typ := n.Type
			if typ == nil {
				typ = elided[n]
			}
			var key, elt ast.Expr
			switch t := typ.(type) {
			case *ast.ArrayType:
				elt = t.Elt
			case *ast.MapType:
				key, elt = t.Key, t.Value
			}
			fields := isStruct(typ)
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok && fields {
						skip[id] = true
					}
					if lit, ok := kv.Key.(*ast.CompositeLit); ok && lit.Type == nil {
						elided[lit] = key
					}
					e = kv.Value
				}
				if lit, ok := e.(*ast.CompositeLit); ok && lit.Type == nil {
					elided[lit] = elt
				}
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					usedPkgNames[p+"."+n.Sel.Name] = true
					skip[x] = true
					return true
				}
			}
			usedMethods[n.Sel.Name] = true
		case *ast.Ident:
			if !skip[n] {
				usedPkgNames[pkgPath+"."+n.Name] = true
			}
		}
		return true
	})
}
