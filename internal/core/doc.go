// Package core implements the paper's primary contribution: the
// fine-grained metadata-matching framework that links PanDA jobs to Rucio
// file-transfer events at file granularity, despite transfer events
// carrying no job identifier.
//
// Three strategies are provided, mirroring Section 4:
//
//   - Exact (Algorithm 1): joins the job's JEDI file rows to transfer
//     events on (lfn, scope, dataset, proddblock, file_size), then filters
//     the candidate set by transfer-start-before-job-end, the
//     download/upload site condition, and the whole-set size-sum condition
//     (Σ file_size == ninputfilebytes ∨ noutputfilebytes).
//   - RM1: drops the file-size checking criterion. The paper motivates this
//     with two cases — valid subsets without an exact sum, and sizes not
//     recorded precisely to the byte; we therefore relax file_size both in
//     the per-file join and in the aggregate check (see DESIGN.md).
//   - RM2: additionally drops the computing-site condition, recovering
//     transfers whose source or destination was recorded as UNKNOWN or with
//     an invalid name.
//
// Entry points: NewMatcher over a metastore, then MatchJob for one job or
// RunParallel for a job set at any worker count; RepairStore and
// MeasureUplift apply RM2 site inferences and quantify the exact-match
// uplift. The matcher probes the store's per-job join entries, which the
// segmented store answers at any point mid-run — MatchJob needs no Freeze
// and is the query surface of the sim.RunWithObserver checkpoints. The
// store hands out join entries only for jobs with at least one candidate
// transfer, so a job that cannot match costs one map miss. A matching
// pass reads no time index: the join entries, file rows, task buckets and
// counts it reads are all built at ingest, so its worker goroutines share
// the store as it is, frozen or not, as long as no put runs beside them.
//
// Determinism invariant: RunParallel takes one path for every worker
// count. Each worker collects the matches of one contiguous range of the
// job slice, one aggregator reads them in input order, and Matches are
// stable-sorted by pandaid (input position breaking ties), so results are
// identical for any worker count, byte for byte. The historical
// nested-loop matcher survives as the unexported matchJobReference, the
// oracle of the randomized equivalence tests and the baseline of the
// MatchRun benchmarks.
package core
