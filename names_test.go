package occusim_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// uncalledAllowed lists what the two rules find and what stays anyway:
// an exported name under internal/ that no non-test Go file uses, and a
// struct field that none reads or, exported, none sets
// (fields_test.go). A key is pkg.Name for a package-level name,
// pkg.Type.Method for a method and pkg.Type.Field for a field.
var uncalledAllowed = map[string]string{
	"raceflag.Enabled": "build-tag twin: race.go and norace.go each set it, and only tests read it",

	"ble.World.SetCulling": "switches off culling for the exhaustive reference run cull_test compares against",
	"ble.World.Culled":     "counts what culling skipped, for the same reference run",

	"sim.Engine.Cancel":  "kept for the injected control-plane clock (ROADMAP item 24)",
	"sim.Engine.Pending": "kept for the injected control-plane clock (ROADMAP item 24)",
	"sim.Event.Canceled": "kept for the injected control-plane clock (ROADMAP item 24)",

	"fleet.Gateway.MarkDown": "the drills' failure hook until the fault shard of ROADMAP item 24",
	"fleet.Gateway.MarkUp":   "the drills' failure hook until the fault shard of ROADMAP item 24",

	"app.Stats.Cycles":       "Example_quickstart prints it",
	"app.Stats.RegionEnters": "Example_quickstart reads it for the app state it prints",
	"app.Stats.RegionExits":  "Example_quickstart reads it for the app state it prints",
	"app.Stats.SendFailures": "TestNetworkedBluetoothRelay reads it through the facade to see the BLE hop fail",

	"bms.EnergyComparison.PerRoom": "the per-room comfort misses of ROADMAP item 21 read it",
	"bms.RoomUsage.Occupied":       "the per-room comfort misses of ROADMAP item 21 read it",

	"core.PhoneConfig.Profile":            "the mixed-handset crowd of ROADMAP item 25 sets it",
	"core.ScenarioConfig.TrackerDebounce": "Example_quickstart and the facade tests set it to 1",

	"experiments.Fig8Result.FinalErrorB":  "TestExperimentsTable pins it in EXPERIMENTS.md",
	"experiments.SignalResult.RawSummary": "TestExperimentsTable pins it in EXPERIMENTS.md",

	"fleet.LeaseConfig.Probe":     "the lease tests' probe hook until the injected clock of ROADMAP item 24",
	"transport.RetryPolicy.Sleep": "the retry tests' sleep hook until the injected clock of ROADMAP item 24",

	"scenario.Spec.Dir":      "TestSnapshotPlusTailCrashRecoversExact builds a durable pool with it",
	"scenario.Spec.Policy":   "TestSnapshotPlusTailCrashRecoversExact builds a durable pool with it",
	"scenario.Spec.Loopback": "TestMisrouteCrowd and cmd/loadgen's -target test serve the fleet over HTTP with it",
	"scenario.Fleet.URL":     "TestMisrouteCrowd and cmd/loadgen's -target test reach the loopback fleet at it",

	"scenario.Outcome.DevicesTracked":    "TestCrowdIngest and TestCrowdFleet read it; it is where the score against truth of ROADMAP item 15 starts",
	"scenario.Outcome.EventsCommitted":   "TestCrowdIngest and TestCrowdFleet read it; it is where the score against truth of ROADMAP item 15 starts",
	"scenario.Outcome.PlacementAccuracy": "TestCrowdIngest and TestCrowdFleet read it; it is where the score against truth of ROADMAP item 15 starts",
}

// stdlibCallers declares the interfaces through which the standard
// library calls module methods that no module code names: fmt, errors,
// encoding/json, sort and container/heap reach them. Every method of
// these interfaces counts as used.
const stdlibCallers = `package callers

import (
	"container/heap"
	"encoding"
	"encoding/json"
	"fmt"
	"sort"
)

var (
	_ error
	_ fmt.Stringer
	_ json.Marshaler
	_ json.Unmarshaler
	_ encoding.TextUnmarshaler // encoding/json
	_ sort.Interface
	_ heap.Interface
	_ interface{ Unwrap() error } // errors.Unwrap, errors.Is, errors.As
	_ interface{ Is(error) bool }  // errors.Is
	_ interface{ As(any) bool }    // errors.As
)
`

const module = "occusim"

// modulePkg is one type-checked package of the module, its non-test
// files only.
type modulePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// moduleImporter type-checks the module's packages from source and
// hands the standard library to the compiler's export data, so every
// package sees one object for each name.
type moduleImporter struct {
	fset *token.FileSet
	std  types.Importer
	dirs map[string]string // import path → directory
	pkgs map[string]*modulePkg
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if mp := m.pkgs[p]; mp != nil {
		return mp.pkg, nil
	}
	dir, ok := m.dirs[p]
	if !ok {
		return m.std.Import(p)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	mp := &modulePkg{info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		mp.files = append(mp.files, f)
	}
	conf := types.Config{Importer: m}
	if mp.pkg, err = conf.Check(p, m.fset, mp.files, mp.info); err != nil {
		return nil, err
	}
	m.pkgs[p] = mp
	return mp.pkg, nil
}

// loadModule type-checks every non-test package of the module.
func loadModule() (*moduleImporter, error) {
	imp := &moduleImporter{fset: token.NewFileSet(), std: importer.Default(), dirs: map[string]string{}, pkgs: map[string]*modulePkg{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				return nil
			}
			return err
		}
		imp.dirs[path.Join(module, filepath.ToSlash(p))] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p := range imp.dirs {
		if _, err := imp.Import(p); err != nil {
			return nil, err
		}
	}
	return imp, nil
}

// TestNoUncalledExportedNames keeps library names honest: an exported
// name under internal/ must be used by some non-test Go file of the
// module (root, cmd/, benchmark/ or internal/), or be on uncalledAllowed
// with its reason. A name only its own tests call is dead code with a
// test attached; delete both.
//
// The scan is typed. A name is used where a non-test file refers to
// that exact object (a generic instance counts for its origin); the
// name's own declaration and a method's receiver are not uses. A method
// is also used when some type's method set holds it, promoted or not,
// and that type implements an interface whose method of that name is
// used, or one of stdlibCallers. An interface's methods are names too.
func TestNoUncalledExportedNames(t *testing.T) {
	s, err := scanModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range s.uncalled {
		t.Errorf("%s is exported but no non-test Go file uses it: delete it with its tests, or allow it in uncalledAllowed with the reason", u)
	}
	s.reportStale(t)
}

// moduleScan is what both rules found, and which allowlist entries
// sheltered a finding of either.
type moduleScan struct {
	uncalled  []string // the name rule's findings
	fields    []string // the field rule's findings
	sheltered map[string]bool
}

// scanModule type-checks the module once and runs both rules over it,
// for TestNoUncalledExportedNames and TestNoUnreadOrUnsetFields alike.
var scanModule = sync.OnceValues(func() (*moduleScan, error) {
	imp, err := loadModule()
	if err != nil {
		return nil, err
	}
	s := &moduleScan{sheltered: map[string]bool{}}
	if err := s.scanNames(imp); err != nil {
		return nil, err
	}
	s.scanFields(imp)
	return s, nil
})

// reportStale fails on an allowlist entry that shelters nothing: its
// name went or found a caller, and the entry would hide whatever takes
// the name next.
func (s *moduleScan) reportStale(t *testing.T) {
	for key := range uncalledAllowed {
		if !s.sheltered[key] {
			t.Errorf("uncalledAllowed[%q] shelters nothing that either rule finds: delete the entry", key)
		}
	}
}

// scanNames finds the exported names under internal/ that no non-test
// file uses.
func (s *moduleScan) scanNames(imp *moduleImporter) error {
	fset := imp.fset
	// A use does not count inside the name's own declaration or in a
	// method's receiver.
	type span struct{ pos, end token.Pos }
	ownDecl := map[types.Object]span{}
	receivers := map[*ast.Ident]bool{}
	var typeNames []*types.TypeName
	for _, mp := range imp.pkgs {
		for _, f := range mp.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					ownDecl[mp.info.Defs[decl.Name]] = span{decl.Pos(), decl.End()}
					if decl.Recv != nil {
						ast.Inspect(decl.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							ownDecl[mp.info.Defs[spec.Name]] = span{spec.Pos(), spec.End()}
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								ownDecl[mp.info.Defs[id]] = span{spec.Pos(), spec.End()}
							}
						}
					}
				}
			}
		}
		for _, obj := range mp.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				typeNames = append(typeNames, tn)
			}
		}
	}
	used := map[types.Object]bool{}
	ifaceUsed := map[*types.Interface]map[string]bool{}
	useIface := func(iface *types.Interface, name string) {
		if ifaceUsed[iface] == nil {
			ifaceUsed[iface] = map[string]bool{}
		}
		ifaceUsed[iface][name] = true
	}
	use := func(obj types.Object, pos token.Pos) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					useIface(iface, f.Name())
				}
			}
		}
		if d, ok := ownDecl[obj]; ok && d.pos <= pos && pos < d.end {
			return
		}
		used[obj] = true
	}
	for _, mp := range imp.pkgs {
		for id, obj := range mp.info.Uses {
			if !receivers[id] {
				use(obj, id.Pos())
			}
		}
		for sel, s := range mp.info.Selections {
			use(s.Obj(), sel.Sel.Pos())
		}
	}
	callers, err := parser.ParseFile(fset, "callers.go", stdlibCallers, 0)
	if err != nil {
		return err
	}
	callersInfo := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{Importer: imp}).Check("callers", fset, []*ast.File{callers}, callersInfo); err != nil {
		return err
	}
	for _, tv := range callersInfo.Types {
		if iface, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			for i := 0; i < iface.NumMethods(); i++ {
				useIface(iface, iface.Method(i).Name())
			}
		}
	}
	for _, tn := range typeNames {
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams() != nil {
			continue
		}
		for _, v := range []types.Type{named, types.NewPointer(named)} {
			for iface, names := range ifaceUsed {
				if !types.Implements(v, iface) {
					continue
				}
				for name := range names {
					if obj, _, _ := types.LookupFieldOrMethod(v, true, tn.Pkg(), name); obj != nil {
						used[obj.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	// The names under internal/: every exported package-level name, and
	// every exported method of a package-level type, an interface's own
	// methods included.
	type decl struct {
		obj types.Object
		key string
	}
	var decls []decl
	for p, mp := range imp.pkgs {
		if !strings.HasPrefix(p, module+"/internal/") {
			continue
		}
		scope := mp.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				decls = append(decls, decl{obj, mp.pkg.Name() + "." + name})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			var methods []*types.Func
			for i := 0; i < named.NumMethods(); i++ {
				methods = append(methods, named.Method(i))
			}
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumExplicitMethods(); i++ {
					methods = append(methods, iface.ExplicitMethod(i))
				}
			}
			for _, m := range methods {
				if m.Exported() {
					decls = append(decls, decl{m, mp.pkg.Name() + "." + name + "." + m.Name()})
				}
			}
		}
	}

	for _, d := range decls {
		switch {
		case used[d.obj]:
		case uncalledAllowed[d.key] != "":
			s.sheltered[d.key] = true
		default:
			s.uncalled = append(s.uncalled, fset.Position(d.obj.Pos()).String()+": "+d.key)
		}
	}
	sort.Strings(s.uncalled)
	return nil
}
