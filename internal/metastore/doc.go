// Package metastore is the OpenSearch stand-in: an in-memory, indexed
// store of job records, JEDI file records, and Rucio transfer events, with
// the time-windowed queries the paper's analysis workflow (Fig. 4) issues.
//
// The store is sharded, columnar, and segmented. Records route to one of N
// shards (NewSharded; New picks DefaultShards) by a hash of their
// jeditaskid and are value-copied into per-shard chunked arenas —
// contiguous slabs with stable addresses and no per-record heap object.
// String attributes intern through a store-global table at ingest: the
// composite join indices Algorithm 1 probes are keyed by dense symbol
// tuples rather than string quadruples, and repeated site/RSE/activity
// backings collapse onto one allocation. Matching is task-local, so the
// matcher-facing probes (JoinEntriesForJob, TaskTransfersByKey,
// FilesForJob, TransfersByTaskID) touch exactly one shard; events without
// a jeditaskid spread round-robin and never enter a task index.
//
// Ingestion is append-only and single-threaded: the Put* methods maintain
// the per-shard hash indices and the cached counters incrementally, and
// bind every JEDI file row to its candidate bucket — the events of its
// task sharing its join key — as it is put; a row whose key has no event
// yet waits on its task's parked list until the key's first event binds
// it. A job's rows form one group, kept in a map of bound groups once any
// row has a bucket and in a map of unbound groups until then; most groups
// never bind, so JoinEntriesForJob reads only the smaller bound map, on a
// live store and a frozen one alike, and FilesForJob reads whichever map
// holds the group. The sorted time order behind the ranged queries Jobs
// and Transfers is one segmented index per kind of row — jobs by EndTime,
// transfers by StartedAt — kept by the store across every shard's arena
// (NewShardedSegmented sizes its segments): rows land in a mutable tail,
// row pointers and global put sequences in put order, whose sorted view
// is cached lazily; when the tail reaches the segment-row threshold — or
// on an explicit Seal() — it is handed to an immutable, binary-searchable
// sealed segment (sorted in the background while ingestion continues) and
// a fresh tail begins.
//
// Mid-run query visibility: every query surface answers at any point
// during ingestion, with no Freeze required, over exactly the records put
// so far. Jobs and Transfers have one code path, live or frozen: the
// sealed segments' windows plus the tail's, merged by (time, ingestion
// sequence), so their results are byte-identical for the same ingested
// prefix at any cut — for any shard count crossed with any segment size
// (pinned by the cut-point equivalence tests and FuzzSegmentMerge).
// Freeze is the checkpoint finalizer: it seals both tails and compacts
// each index to one run, so on a frozen store a ranged query is one
// binary-searched run returned as is (FuzzRefreeze pins repeated freezes
// against the stream oracle). Every merge — query windows and compaction
// — is one kernel: runs merge pairwise, smallest first, each placing the
// shorter run's rows in the longer one by galloping search. Queries
// return pointers into the arenas; callers must not mutate results.
//
// Concurrency invariant: ingestion is single-threaded, and queries never
// overlap it (the serving layer's epoch lock and the ingest pipe's drain
// before every checkpoint enforce this), but they may interleave with it
// freely. Between puts, any number of readers may query concurrently,
// live or frozen: the only state a query writes is a time index's cached
// tail view, published through an atomic pointer, and background segment
// sorts overlap ingestion safely (readers synchronize on the seal before
// touching sealed runs). Readers of a frozen store may also call Freeze:
// on a settled store it returns at once and writes nothing (pinned under
// -race by TestConcurrentFrozenReads). Reset empties a store for reuse — arena
// high-water marks rewind keeping their chunks, index maps keep capacity,
// and the intern table clears so a reused store cannot leak one scenario's
// strings into the next (the sweep engine gives each worker one store
// across many scenarios via sim.RunReusing). Reset invalidates everything
// previously obtained from the store.
package metastore
