package occusim_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestNoUnreadOrUnsetFields keeps state and knobs honest: a field of a
// package-level struct type under internal/ must be read by some
// non-test Go file of the module, and an exported one must be set by
// one, or the field is on uncalledAllowed with its reason. A field no
// program reads is state computed for nothing; an exported field no
// program sets is a knob no program turns, so its default is a
// constant. Embedded fields, blank ones and json-tagged ones (read and
// set by encoding/json) are exempt. fieldUses says what counts as a
// read and as a set.
func TestNoUnreadOrUnsetFields(t *testing.T) {
	s, err := scanModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range s.fields {
		t.Error(f)
	}
	s.reportStale(t)
}

// scanFields classifies every field use in the module's non-test files
// and checks the fields of the struct types under internal/.
func (s *moduleScan) scanFields(imp *moduleImporter) {
	uses := newFieldUses()
	for _, mp := range imp.pkgs {
		uses.add(mp.files, mp.info)
	}
	for p, mp := range imp.pkgs {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		for _, f := range checkFields(mp.pkg, uses) {
			if uncalledAllowed[f.key] != "" {
				s.sheltered[f.key] = true
				continue
			}
			s.fields = append(s.fields, imp.fset.Position(f.pos).String()+": "+f.String())
		}
	}
	sort.Strings(s.fields)
}

// fieldFinding is a field the rule refuses.
type fieldFinding struct {
	key           string // pkg.Type.Field
	pos           token.Pos
	unread, unset bool
}

func (f fieldFinding) String() string {
	var why []string
	if f.unread {
		why = append(why, "no non-test Go file reads it: delete it with the code that computes it")
	}
	if f.unset {
		why = append(why, "it is exported but no non-test Go file sets it: make it the constant its default is")
	}
	return f.key + ": " + strings.Join(why, "; ") + ", or allow it in uncalledAllowed with the reason"
}

// checkFields returns the fields of pkg's package-level struct types
// that uses never saw read or, exported, never saw set.
func checkFields(pkg *types.Package, uses *fieldUses) []fieldFinding {
	var found []fieldFinding
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if _, tagged := reflect.StructTag(st.Tag(i)).Lookup("json"); f.Embedded() || f.Name() == "_" || tagged {
				continue
			}
			ff := fieldFinding{
				key:    pkg.Name() + "." + name + "." + f.Name(),
				pos:    f.Pos(),
				unread: !uses.read[f],
				unset:  f.Exported() && !uses.set[f],
			}
			if ff.unread || ff.unset {
				found = append(found, ff)
			}
		}
	}
	return found
}

// fieldUses records which struct fields some file reads and which some
// file sets (a generic field counts for its origin). Uses are:
//   - a set: a keyed or positional composite literal element, the left
//     side of = or an op-assign (x.f[i] = v sets f), ++ and --, and &x.f,
//     which is a read too, since the pointer's holder may read through
//     it;
//   - neither: an assignment inside an if whose condition tests the same
//     field (if c.F == 0 { c.F = d }: the default is then the only value
//     the program gives it), and x.f as append's first argument in
//     x.f = append(x.f, …);
//   - a read: every other selection of the field, a method call on it
//     (x.n.Add(1)) included.
type fieldUses struct {
	read, set map[*types.Var]bool
}

func newFieldUses() *fieldUses {
	return &fieldUses{read: map[*types.Var]bool{}, set: map[*types.Var]bool{}}
}

// add classifies the field uses in files, type-checked into info.
func (u *fieldUses) add(files []*ast.File, info *types.Info) {
	// field returns the field e selects, after parentheses, or nil.
	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return sel, s.Obj().(*types.Var).Origin()
		}
		return nil, nil
	}
	// target returns the field an assignment to e sets: x.f for x.f and
	// for x.f[i].
	target := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.IndexExpr:
				e = x.X
			case *ast.IndexListExpr:
				e = x.X
			default:
				return field(e)
			}
		}
	}
	for _, file := range files {
		notRead := map[*ast.SelectorExpr]bool{}
		var stack []ast.Node
		// tested reports whether an if around the current node tests v
		// in its condition.
		tested := func(v *types.Var) bool {
			for i := len(stack) - 1; i > 0; i-- {
				ifs, ok := stack[i-1].(*ast.IfStmt)
				if !ok || stack[i] == ifs.Init || stack[i] == ifs.Cond {
					continue
				}
				found := false
				ast.Inspect(ifs.Cond, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						if _, w := field(e); w == v {
							found = true
						}
					}
					return !found
				})
				if found {
					return true
				}
			}
			return false
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					sel, v := target(lhs)
					if v == nil {
						continue
					}
					notRead[sel] = true
					if !tested(v) {
						u.set[v] = true
					}
					if n.Tok != token.ASSIGN || len(n.Rhs) != len(n.Lhs) {
						continue
					}
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 {
						if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
							if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
								if arg, w := field(call.Args[0]); w == v {
									notRead[arg] = true
								}
							}
						}
					}
				}
			case *ast.IncDecStmt:
				if sel, v := target(n.X); v != nil {
					notRead[sel] = true
					u.set[v] = true
				}
			case *ast.UnaryExpr:
				if _, v := field(n.X); n.Op == token.AND && v != nil {
					u.set[v] = true
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if p, ok := t.(*types.Pointer); ok { // an elided &T in []*T{{…}}
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							u.set[v.Origin()] = true
						}
					} else {
						u.set[st.Field(i).Origin()] = true
					}
				}
			case *ast.SelectorExpr:
				if _, v := field(n); v != nil && !notRead[n] {
					u.read[v] = true
				}
			}
			return true
		})
	}
}

// TestFieldUseRules pins what fieldUses counts as a read and a set, and
// which fields checkFields exempts, on a package of its own: each field
// of T is touched only as its name says.
func TestFieldUseRules(t *testing.T) {
	const src = `package p

import "sync/atomic"

type T struct {
	Keyed, Inc, OpAssign, Addr, Default, Assigned, Untouched int
	Index, Appended                                        []int
	N                                                      atomic.Int64
	Tagged                                                 int ` + "`json:\"t\"`" + `
	unread, read                                           int
	*E
	_ int
}

type Pos struct{ A, B int }

type Ptr struct{ A int }

type E struct{}

func use(x *T) *int {
	_ = T{Keyed: 1}
	_ = []Pos{{1, 2}}
	_ = []*Ptr{{1}}
	x.Index[0] = 1
	x.Inc++
	x.OpAssign += 1
	x.N.Add(1)
	if x.Default == 0 {
		x.Default = 1
	}
	x.Appended = append(x.Appended, 1)
	x.unread = 2
	x.Assigned = x.read
	return &x.Addr
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: importer.Default()}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	uses := newFieldUses()
	uses.add([]*ast.File{f}, info)
	var got []string
	for _, ff := range checkFields(pkg, uses) {
		line := strings.TrimPrefix(ff.key, "p.")
		if ff.unread {
			line += " unread"
		}
		if ff.unset {
			line += " unset"
		}
		got = append(got, line)
	}
	sort.Strings(got)
	want := []string{
		"Pos.A unread",      // a positional literal sets the field
		"Pos.B unread",      //
		"Ptr.A unread",      // so does one whose &T is elided
		"T.Appended unread", // x.f = append(x.f, v) sets and does not read
		"T.Assigned unread", // = sets
		"T.Default unset",   // its defaulting if reads it and does not set it
		"T.Inc unread",      // ++ sets
		"T.Index unread",    // x.f[i] = v sets
		"T.Keyed unread",    // a keyed literal sets the field
		"T.N unset",         // a method call on the field reads it
		"T.OpAssign unread", // op-assign sets
		"T.Untouched unread unset",
		"T.unread unread", // an unexported field need not be set
	} // T.Addr: &x.f sets and reads; T.Tagged, T.E and T._ are exempt
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("checkFields found\n\t%s\nwant\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}
