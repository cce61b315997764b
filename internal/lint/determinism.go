package lint

import (
	"fmt"
	"go/ast"
)

// Determinism flags raw wall-clock reads and global math/rand draws in
// algorithm code. A single stray time.Now in a join kernel silently breaks
// the simulated-arrival model (every experiment assumes time flows through
// internal/clock), and an unseeded global rand makes a benchmark sweep
// unrepeatable. The one sanctioned wall-clock call site, internal/clock
// itself, is path-allowlisted; the metrics harness reads no clock (phase
// time comes from core.PhaseClock through a clock.Stopwatch).
type Determinism struct{}

// Name implements Analyzer.
func (Determinism) Name() string { return "determinism" }

// Doc implements Analyzer.
func (Determinism) Doc() string {
	return "no time.Now/time.Since/global math/rand outside internal/clock"
}

// Severity implements Analyzer.
func (Determinism) Severity() Severity { return Error }

// wallClockFuncs are the time package reads that leak real time into
// algorithm state. time.Sleep is deliberately absent: sleeping is pacing,
// not measurement.
var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// globalRandFuncs are the top-level math/rand (and v2) draws that consume
// the shared, unseedable-per-run source. Constructing a seeded generator
// (rand.New, rand.NewPCG, rand.NewSource) is the sanctioned pattern and is
// not listed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "IntN": true,
	"Int31": true, "Int31n": true, "Int32N": true,
	"Int63": true, "Int63n": true, "Int64N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"UintN": true, "N": true,
	"Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true,
}

// Check implements Analyzer.
func (Determinism) Check(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		imports := importNames(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := pkgCall(call, imports, "time"); ok && wallClockFuncs[name] {
				out = append(out, Finding{
					Rule: "determinism",
					Sev:  Error,
					Pos:  p.Fset.Position(call.Pos()),
					Msg:  fmt.Sprintf("time.%s reads the wall clock; algorithms must consume internal/clock", name),
				})
			}
			if name, ok := pkgCall(call, imports, "math/rand", "math/rand/v2"); ok && globalRandFuncs[name] {
				out = append(out, Finding{
					Rule: "determinism",
					Sev:  Error,
					Pos:  p.Fset.Position(call.Pos()),
					Msg:  fmt.Sprintf("rand.%s draws from the global source; use a seeded rand.New generator", name),
				})
			}
			return true
		})
	}
	return out
}
