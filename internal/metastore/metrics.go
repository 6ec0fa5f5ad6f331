package metastore

import "panrucio/internal/obs"

// Process-wide metastore metrics, registered in the obs default registry.
// Counters and histograms aggregate over every store in the process (the
// sweep engine runs one store per worker).
//
// The per-row ingest counters are NOT updated per put: the single-writer
// ingest path batches them as plain increments on the store and flushes
// them whenever a put seals a tail, and on Seal, Freeze and Reset (see
// flushIngestCounters), so the put hot loops carry no atomic
// read-modify-writes at all. A scrape between flushes lags the puts by at
// most one segment's worth of rows per time index. The tail gauge is set
// by a reorganizing Freeze (before its seals) and by Reset.
// Seal/merge/freeze metrics update at reorganization time, where one
// atomic op amortizes over thousands of rows. The overhead benchmark (bench/BENCH_obs.json) pins the total
// ingest-path cost.
var (
	mJobsIngested = obs.Default().Counter("metastore_jobs_ingested_total",
		"job rows ingested across all stores (flushed at seal and freeze)")
	mFilesIngested = obs.Default().Counter("metastore_files_ingested_total",
		"JEDI file rows ingested across all stores (flushed at seal and freeze)")
	mTransfersIngested = obs.Default().Counter("metastore_transfers_ingested_total",
		"transfer events ingested across all stores (flushed at seal and freeze)")
	mTailRows = obs.Default().Gauge("metastore_tail_rows",
		"unsealed tail rows pending at the last reorganizing freeze (pre-seal capture)")
	mSeals = obs.Default().Counter("metastore_seals_total",
		"tail seals (immutable sorted segments created)")
	mSealRows = obs.Default().Histogram("metastore_seal_rows",
		"rows per sealed segment", obs.SizeBuckets)
	mSealSortSeconds = obs.Default().Histogram("metastore_seal_sort_seconds",
		"background (time, seq) sort latency of one sealed segment", obs.DefBuckets)
	mMergeWidth = obs.Default().Histogram("metastore_merge_width",
		"non-empty sorted runs per merge (query windows, compaction)", obs.SizeBuckets)
	mFreezes = obs.Default().Counter("metastore_freezes_total",
		"store freezes that did reorganization work (freezes of a settled store excluded)")
	mFreezeSeconds = obs.Default().Histogram("metastore_freeze_seconds",
		"wall time of one reorganizing freeze", obs.DefBuckets)
	mCommitRows = obs.Default().Counter("metastore_commit_rows_total",
		"rows covered by seal-time integrity commitments (background, off the ingest path)")
	mCommitSeconds = obs.Default().Histogram("metastore_commit_seconds",
		"background commitment (row hashing) latency of one sealed segment", obs.DefBuckets)
	mAudits = obs.Default().Counter("metastore_audits_total",
		"integrity audits run (full, incremental, and windowed)")
	mAuditRows = obs.Default().Counter("metastore_audit_rows_total",
		"sealed rows re-hashed and checked against their commitments")
	mAuditViolations = obs.Default().Counter("metastore_audit_violations_total",
		"commitment violations detected across all audits")
	mAuditSeconds = obs.Default().Histogram("metastore_audit_seconds",
		"wall time of one integrity audit", obs.DefBuckets)
)
