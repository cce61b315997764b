package lint

import (
	"fmt"
	"go/ast"
	"go/token"
)

// TraceRing verifies that span recording inside `//iawj:hotpath` functions
// goes through the preallocated per-worker ring API of internal/trace:
// the nil-safe *trace.Worker methods Record and NowNs, a struct store
// plus one atomic publish. (Phase spans reach Record through
// core.PhaseClock, the run's one phase clock.) Everything else the
// package exports — recorder construction, StartRun, Snapshot, the
// exporters — allocates or takes the recorder mutex, so calling it from a
// probe/build inner loop reintroduces exactly the overhead the ring
// design exists to avoid.
//
// Flagged inside annotated functions (only in files importing
// repro/internal/trace):
//
//   - any package-level trace.* call (NewRecorder, WriteChrome, ...);
//   - method calls named StartRun, Snapshot, Algorithms, AlgName, or
//     Workers — the locking Recorder surface.
type TraceRing struct{}

// Name implements Analyzer.
func (TraceRing) Name() string { return "tracering" }

// Doc implements Analyzer.
func (TraceRing) Doc() string {
	return "span recording in //iawj:hotpath functions must use the preallocated *trace.Worker ring API"
}

// Severity implements Analyzer.
func (TraceRing) Severity() Severity { return Error }

// tracePkgPath is the import path of the span recorder package.
const tracePkgPath = "repro/internal/trace"

// recorderMethods is the locking surface of the trace package, off-limits
// on hot paths. The Worker ring methods (Record, NowNs) are the
// sanctioned API and are not listed. Besides the Recorder
// methods this covers the Sampler read surface (SampleNow, Latest,
// Samples) — every one takes the sampler mutex and SampleNow also reads
// runtime/metrics; the sampling goroutine and export paths are the only
// legitimate callers.
var recorderMethods = map[string]bool{
	"StartRun": true, "Snapshot": true, "Algorithms": true,
	"AlgName": true, "Workers": true,
	"SampleNow": true, "Latest": true, "Samples": true,
}

// Check implements Analyzer.
func (a TraceRing) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		imports := importNames(f)
		usesTrace := false
		for _, path := range imports {
			if path == tracePkgPath {
				usesTrace = true
				break
			}
		}
		if !usesTrace {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isHotPath(fn) {
				continue
			}
			out = append(out, a.checkHotFunc(p, fn, imports)...)
		}
	}
	return out
}

// checkHotFunc scans one annotated function, including nested closures,
// which execute on the same hot path.
func (TraceRing) checkHotFunc(p *Package, fn *ast.FuncDecl, imports map[string]string) []Finding {
	var out []Finding
	flag := func(pos token.Pos, msg string) {
		out = append(out, Finding{
			Rule: "tracering",
			Sev:  Error,
			Pos:  p.Fset.Position(pos),
			Msg:  msg,
		})
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := pkgCall(call, imports, tracePkgPath); ok {
			flag(call.Pos(), fmt.Sprintf(
				"trace.%s in a //iawj:hotpath function; record spans through a preallocated *trace.Worker handle", name))
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && recorderMethods[sel.Sel.Name] {
			// The receiver is a local expression; with the trace package
			// imported in this file, a locking Recorder method name on a
			// hot path is flagged regardless of receiver type (syntactic,
			// conservative toward the invariant).
			flag(call.Pos(), fmt.Sprintf(
				"%s call in a //iawj:hotpath function; use the *trace.Worker ring API (Record/NowNs)", sel.Sel.Name))
		}
		return true
	})
	return out
}
