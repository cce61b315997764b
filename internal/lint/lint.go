// Package lint is the repo-specific static-analysis engine guarding the
// reproduction's correctness invariants: determinism (simulated time flows
// through internal/clock, never raw wall-clock reads), lock discipline,
// goroutine join discipline, allocation-free hot paths, and the panic
// policy for library code.
//
// The engine is stdlib-only (go/ast, go/parser, go/types). Analyzers are
// syntactic-first with best-effort type information: each package is
// type-checked in isolation against stub imports, which resolves all
// locally declared objects — enough for scope questions like "is this
// append target captured?" — without needing export data for dependencies.
//
// Two escape hatches exist for sanctioned violations:
//
//   - a `//lint:allow <rule> <reason>` comment on the offending line or
//     the line directly above it, and
//   - a per-rule path allowlist (DefaultPathAllow) for whole packages
//     whose job is the violation, e.g. internal/clock wrapping time.Now.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Severity ranks findings; any finding fails the CI gate, the rank only
// orders reports.
type Severity int

// Error findings are correctness hazards; Warn findings are hygiene.
const (
	Warn Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warn"
}

// Finding is one diagnostic with a stable position.
type Finding struct {
	Rule string
	Sev  Severity
	Pos  token.Position
	Msg  string
}

// Analyzer is one repo-specific rule.
type Analyzer interface {
	// Name is the rule identifier used by //lint:allow and -rules.
	Name() string
	// Doc is a one-line description for the driver's -help output.
	Doc() string
	// Severity is the default rank of this rule's findings.
	Severity() Severity
	// Check reports the rule's findings for one package.
	Check(p *Package) []Finding
}

// ProgramAnalyzer is a rule that needs the whole program at once —
// callgraphs, cross-package type layouts — rather than one package at a
// time.
type ProgramAnalyzer interface {
	// Name is the rule identifier used by //lint:allow and -rules.
	Name() string
	// Doc is a one-line description for the driver's -help output.
	Doc() string
	// Severity is the default rank of this rule's findings.
	Severity() Severity
	// CheckProgram reports the rule's findings over every package.
	CheckProgram(prog *Program) []Finding
}

// All returns every per-package analyzer in reporting order.
func All() []Analyzer {
	return []Analyzer{
		Determinism{},
		LockDiscipline{},
		GoroutineLeak{},
		HotPathAlloc{},
		PanicPolicy{},
		TraceRing{},
	}
}

// AllProgram returns every whole-program analyzer in reporting order.
func AllProgram() []ProgramAnalyzer {
	return []ProgramAnalyzer{
		LockOrder{},
		NewFalseShare(),
		GuardInfer{},
		AtomicMix{},
		GoEscape{},
		MapOrder{},
	}
}

// RuleInfo is one catalogue entry for -list and error messages.
type RuleInfo struct {
	Name string
	Doc  string
}

// Catalogue lists every rule the driver can run: per-package analyzers,
// whole-program analyzers, and the driver-stage build gates (escapegate,
// bcegate, inlinegate — all fed by one shared -gcflags diagnostics run).
func Catalogue() []RuleInfo {
	var out []RuleInfo
	for _, a := range All() {
		out = append(out, RuleInfo{a.Name(), a.Doc()})
	}
	for _, a := range AllProgram() {
		out = append(out, RuleInfo{a.Name(), a.Doc()})
	}
	eg, bg, ig := EscapeGate{}, BCEGate{}, InlineGate{}
	out = append(out,
		RuleInfo{eg.Name(), eg.Doc()},
		RuleInfo{bg.Name(), bg.Doc()},
		RuleInfo{ig.Name(), ig.Doc()},
	)
	return out
}

// RuleNames returns the catalogue names, for "unknown rule" errors.
func RuleNames() []string {
	var names []string
	for _, r := range Catalogue() {
		names = append(names, r.Name)
	}
	return names
}

// Contracts holds the long-form contract text behind each rule, printed by
// `iawjlint -explain <rule>`: what the rule proves, why the repro depends
// on it, and which escape hatches are sanctioned. The one-line Doc is the
// catalogue summary; this is the paragraph a reviewer reads before writing
// a //lint:allow.
var Contracts = map[string]string{
	"determinism":    "Replays and golden files require run-to-run byte stability. Wall-clock reads (time.Now) and unseeded randomness are banned outside internal/clock, the one wall-clock wrapper (phase time reaches the metrics harness only through core.PhaseClock's Stopwatch); derive time from the run ledger and randomness from the seeded workload spec.",
	"lockdiscipline": "Every mutex acquire must have a statically-paired release on all paths: defer immediately after Lock, or an unlock on every return. A leaked lock in a partition worker deadlocks the barrier, which presents as a hang, not a failure.",
	"goroutineleak":  "Worker goroutines must be joined: every `go` statement needs a matching WaitGroup.Add/Done or a bounded channel join. Leaked workers skew the next measurement window's CPU accounting.",
	"hotpathalloc":   "//iawj:hotpath bodies must not allocate per iteration: no captured-slice append, fmt.Sprintf, map literals, closure creation, string conversion, or interface boxing inside loops. The kernels' ns/tuple figures assume zero GC pressure; take scratch from the pool.",
	"panicpolicy":    "Kernels and workers never panic on data; panics are reserved for programmer errors caught at construction time. A panic in a worker tears down the process mid-measurement and poisons the ledger.",
	"tracering":      "Trace emission in hot code goes through the fixed-size ring, never through a growing slice or unbuffered channel; the ring's overwrite semantics are the sanctioned loss model.",
	"lockorder":      "Locks must be acquired in one global order (the order of first acquisition in the program). A cycle between partition locks and the ledger lock is a deadlock that only fires under the open-loop harness's contention.",
	"falseshare":     "Per-thread counters and heads must be padded to a cache line; adjacent hot fields from different threads in one line serialize the memory system and flatten the scalability curves the paper is about.",
	"guardinfer":     "Fields consistently accessed under one mutex are inferred to be guarded by it; an access outside that mutex is a data race the race detector only finds if the schedule cooperates. Declare intentional unguarded access with //lint:allow guardinfer.",
	"atomicmix":      "A word accessed atomically anywhere must be accessed atomically everywhere; mixing atomic.Load with plain reads is undefined under the Go memory model even when it happens to work on amd64.",
	"goescape":       "Closures passed to `go` must not capture loop variables by reference or retain per-iteration scratch; the escape is both a correctness hazard and a hidden allocation.",
	"maporder":       "Go randomizes map iteration order per run. Any value whose ORDER derives from ranging over a map (keys collected in the range body, appends inside it, maps.Keys iterators) must pass a sort barrier (sort.*, slices.Sort*, or a local *sort* helper) before reaching an emission sink: fmt output, Write*/Encode stream methods, digest updates, or a slice returned from an exported function. Order-independent sinks (a commutative digest) are sanctioned violations — justify with //lint:allow maporder and say WHY order cannot matter.",
	"escapegate":     "The compiler's own escape analysis (-m=2) proves no //iawj:hotpath loop body heap-allocates. Per-run setup allocations in straight-line code pass; per-iteration allocations fail. Fix by hoisting or pooling; function-scope //lint:allow escapegate in the doc comment sanctions a span whose allocations are by design.",
	"bcegate":        "The compiler's BCE debug pass (-d=ssa/check_bce/debug=1) proves no //iawj:hotpath loop body retains a bounds check. Recipes, in order of preference: slice-to-length staging (blk := xs[lo:lo+n]; hs := heads[:len(blk)]; index both by j := range blk), the `_ = s[n-1]` hoist before the loop, and uint comparison against a constant capacity (if uint32(i) >= cap). Data-dependent bounds the prover cannot see (chain walks bounded by a stored count) take a function-scope //lint:allow bcegate with the invariant written out.",
	"inlinegate":     "Functions annotated //iawj:inline are contracts: the inliner must accept them (budget 80). The gate parses -m=2 verdicts and fails on refusal, reporting cost and the over-by delta so budget creep is visible in the diff that caused it. Fix by trimming the body or outlining the cold path behind //go:noinline; or drop the annotation if inlining no longer matters there.",
}

// Explain returns the -explain text for a rule: its one-line Doc plus the
// long-form contract. ok is false for names outside the catalogue.
func Explain(name string) (string, bool) {
	var doc string
	found := false
	for _, r := range Catalogue() {
		if r.Name == name {
			doc, found = r.Doc, true
			break
		}
	}
	if !found {
		return "", false
	}
	text := name + ": " + doc
	if c, ok := Contracts[name]; ok {
		text += "\n\n" + c
	}
	return text, true
}

// DefaultPathAllow maps rule name to slash-separated path prefixes
// (relative to the module root) where the rule does not apply: sanctioned
// call sites whose whole purpose is the flagged construct.
var DefaultPathAllow = map[string][]string{
	// internal/clock is the one sanctioned wall-clock wrapper: phase
	// time is read through its Stopwatch by core.PhaseClock alone.
	"determinism": {"internal/clock"},
}

// Package is one parsed directory of non-test Go files plus best-effort
// type information.
type Package struct {
	// Dir is the absolute directory.
	Dir string
	// Rel is the slash path relative to the module root ("" at the
	// root); path allowlists match against it.
	Rel string
	// Fset positions all files.
	Fset *token.FileSet
	// Files holds the parsed files in filename order.
	Files []*ast.File
	// Info carries Defs/Uses from the permissive type-check; lookups
	// may miss for identifiers that depend on unresolved imports.
	Info *types.Info
}

// stubImporter satisfies go/types with empty placeholder packages so a
// package can be checked without export data; selector errors on those
// stubs are discarded by the permissive config.
type stubImporter struct{ cache map[string]*types.Package }

func (si stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := si.cache[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	si.cache[path] = p
	return p, nil
}

// Load parses every non-test .go file in dir into a Package. root anchors
// the Rel path; includeTests additionally parses _test.go files.
func Load(dir, root string, includeTests bool) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil || rel == "." {
		rel = ""
	}
	p := &Package{
		Dir:   dir,
		Rel:   filepath.ToSlash(rel),
		Fset:  fset,
		Files: files,
		Info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	conf := types.Config{
		Importer:    stubImporter{cache: map[string]*types.Package{}},
		Error:       func(error) {}, // stub imports guarantee errors; ignore them
		FakeImportC: true,
	}
	// The check is best-effort: local declarations resolve even when
	// imported names cannot, so its error is expected and discarded.
	conf.Check(p.Rel, fset, files, p.Info)
	return p, nil
}

// Program is the whole-program view: every loaded package, indexed by its
// module-relative path. Whole-program analyzers (lockorder, falseshare)
// resolve cross-package references through it.
type Program struct {
	// Packages holds the loaded packages in Rel order.
	Packages []*Package

	byRel map[string]*Package
	// locksets caches the shared access-summary layer (locksets.go) so
	// guardinfer, atomicmix, and goescape walk the program once.
	locksets *lockSets
}

// NewProgram assembles a Program from loaded packages (nils are skipped).
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{byRel: map[string]*Package{}}
	for _, p := range pkgs {
		if p == nil {
			continue
		}
		prog.Packages = append(prog.Packages, p)
		prog.byRel[p.Rel] = p
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Rel < prog.Packages[j].Rel })
	return prog
}

// ByRel returns the package with the given module-relative path, or nil.
func (prog *Program) ByRel(rel string) *Package {
	if prog == nil {
		return nil
	}
	return prog.byRel[rel]
}

// ByImportPath resolves an import path to a loaded package by matching the
// path's module-relative suffix (the module name prefix is unknown to the
// loader, so "repro/internal/tuple" matches the package at Rel
// "internal/tuple"). Stdlib and unloaded paths return nil.
func (prog *Program) ByImportPath(path string) *Package {
	if prog == nil {
		return nil
	}
	for {
		if p, ok := prog.byRel[path]; ok {
			return p
		}
		i := strings.Index(path, "/")
		if i < 0 {
			return nil
		}
		path = path[i+1:]
	}
}

// LoadProgram loads every package directory under root into a Program.
func LoadProgram(root string, includeTests bool) (*Program, error) {
	dirs, err := Walk(root)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := Load(dir, root, includeTests)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
	}
	return NewProgram(pkgs), nil
}

// Walk returns every package directory under root, skipping testdata,
// vendor, and hidden directories — mirroring the go tool's ./... pattern.
func Walk(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// allowRe matches the escape-hatch comment: //lint:allow <rule> <reason>.
var allowRe = regexp.MustCompile(`^//lint:allow\s+([a-z]+)(?:\s+(.*))?$`)

// allows collects, per file line, the set of rules allowed by escape-hatch
// comments in the package. An allow comment suppresses findings on its own
// line and on the line directly below it.
func (p *Package) allows() map[string]map[int][]string {
	out := map[string]map[int][]string{}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int][]string{}
					out[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], m[1])
			}
		}
	}
	return out
}

// allowed reports whether rule is suppressed at the finding position.
func allowed(allows map[string]map[int][]string, rule string, pos token.Position) bool {
	byLine := allows[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, r := range byLine[line] {
			if r == rule {
				return true
			}
		}
	}
	return false
}

// pathAllowed reports whether the rule is allowlisted for the package's
// module-relative path.
func pathAllowed(pathAllow map[string][]string, rule, rel string) bool {
	for _, prefix := range pathAllow[rule] {
		if rel == prefix || strings.HasPrefix(rel, prefix+"/") {
			return true
		}
	}
	return false
}

// Runner applies a set of analyzers with the escape-hatch filters.
type Runner struct {
	Analyzers []Analyzer
	// ProgramAnalyzers feeds CheckProgram; nil selects AllProgram.
	ProgramAnalyzers []ProgramAnalyzer
	// PathAllow overrides DefaultPathAllow when non-nil.
	PathAllow map[string][]string
}

// Check runs every analyzer over the package and returns the surviving
// findings sorted by position.
func (r *Runner) Check(p *Package) []Finding {
	if p == nil {
		return nil
	}
	analyzers := r.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	pathAllow := r.PathAllow
	if pathAllow == nil {
		pathAllow = DefaultPathAllow
	}
	allows := p.allows()
	var out []Finding
	for _, a := range analyzers {
		if pathAllowed(pathAllow, a.Name(), p.Rel) {
			continue
		}
		for _, f := range a.Check(p) {
			if allowed(allows, f.Rule, f.Pos) {
				continue
			}
			out = append(out, f)
		}
	}
	SortFindings(out)
	return out
}

// CheckProgram runs every whole-program analyzer over the program and
// returns the surviving findings sorted by position. The per-package
// escape hatches apply: a finding positioned in package P is dropped when
// P's path allowlist covers the rule or an allow comment covers the line.
func (r *Runner) CheckProgram(prog *Program) []Finding {
	if prog == nil || len(prog.Packages) == 0 {
		return nil
	}
	analyzers := r.ProgramAnalyzers
	if analyzers == nil {
		analyzers = AllProgram()
	}
	pathAllow := r.PathAllow
	if pathAllow == nil {
		pathAllow = DefaultPathAllow
	}
	// Index every package's allow comments and directory so each finding
	// can be attributed to the package that contains it.
	type pkgFilter struct {
		rel    string
		allows map[string]map[int][]string
	}
	byDir := map[string]pkgFilter{}
	for _, p := range prog.Packages {
		byDir[p.Dir] = pkgFilter{rel: p.Rel, allows: p.allows()}
	}
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.CheckProgram(prog) {
			pf, ok := byDir[filepath.Dir(f.Pos.Filename)]
			if ok {
				if pathAllowed(pathAllow, f.Rule, pf.rel) || allowed(pf.allows, f.Rule, f.Pos) {
					continue
				}
			}
			out = append(out, f)
		}
	}
	SortFindings(out)
	return out
}

// SortFindings stable-sorts findings by (file, line, column, rule,
// message) — the one report order shared by the engine and every driver
// emission path (text, JSON, SARIF, baselines), so goldens and baselines
// never churn on map-iteration order. The message tie-break matters when
// one rule reports twice at one position (e.g. two lock-order cycles
// anchored at the same edge).
func SortFindings(out []Finding) {
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Msg < out[j].Msg
	})
}

// importNames maps each file-local import name to its import path,
// resolving renames; dot and blank imports are skipped.
func importNames(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				continue
			}
			name = imp.Name.Name
		}
		out[name] = path
	}
	return out
}

// pkgCall matches a call of the form name.Sel(...) where name is a
// file-local import name; it returns the selector name.
func pkgCall(call *ast.CallExpr, imports map[string]string, wantPath ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	path, ok := imports[id.Name]
	if !ok {
		return "", false
	}
	for _, w := range wantPath {
		if path == w {
			return sel.Sel.Name, true
		}
	}
	return "", false
}
