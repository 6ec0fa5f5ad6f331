// Package analysis turns the metastore and matching results into the
// paper's tables and figures. Each experiment has one entry point
// returning structured data plus a report rendering: VolumeGrowth (E1),
// BuildHeatmap (E2), ActivityBreakdown (E3), MethodComparison's tables
// (E4/E5), TopJobs (E6/E7), BandwidthSeries with TopRoutes (E8/E9),
// BuildThresholdCurves (E10), and the Find*Case studies (E11–E13).
// CompareMethods runs the three matching passes at any worker count,
// and ShapeChecks evaluates the paper's qualitative claims on any run —
// the same checks cmd/repro gates on and the sweep engine scores per
// scenario.
//
// Invariants: every function here is a pure, deterministic function of a
// frozen metastore and a matching result — no RNG, no wall clock, no
// mutation of the store. Windowed computations use the store's sorted
// time indices (built by Freeze), and Table 1's denominators come from
// ingest-time counters rather than event-log scans, so the analyses stay
// cheap enough to run per sweep scenario. BuildHeatmap resolves endpoint
// labels through a per-call table keyed by string identity (data pointer
// and length, read with unsafe.StringData: the package's one use of
// unsafe). Its answers are Grid.SiteIndex's whatever the labels' backings,
// so the heatmap equals the per-event SiteIndex loop bit for bit; that
// loop is the oracle of its tests and of FuzzBuildHeatmap.
package analysis
