// Package experiments orchestrates the paper's full evaluation: it runs
// the simulated grid, applies the matching framework, and regenerates
// every table and figure (DESIGN.md E1–E15). The command-line tools, the
// serving layer and the benchmark harness all build on this package so
// that numbers printed by cmd/repro, served by cmd/serve and measured by
// `go test -bench` come from the same code.
//
// Entry points: Run / RunWorkers build a Suite (one simulation plus the
// three matching passes); Registry lists every experiment once, as an id
// plus the function that builds its Artifact, and is what cmd/analyze
// -exp, RenderAll (the complete textual report) and the serving layer's
// /api/experiments/{id} render; the Suite's Fig2…Fig12, Table1 and
// SummaryTable methods regenerate individual artifacts; Checks evaluates
// the paper's qualitative claims (delegating to analysis.ShapeChecks), and
// ShapeChecks returns them as text lines; and RobustnessSweep (E14) and
// DetectionSweep plus OnlineVerify (E15) run the multi-scenario studies
// through internal/sweep and internal/verify. A Suite is deterministic for
// a given Config and worker count never changes results — RunWorkers
// merely shards the matching passes.
package experiments
