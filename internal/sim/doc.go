// Package sim assembles the full simulated stack — grid topology, network,
// Rucio, PanDA, workload generation, background traffic, metadata
// corruption, and the metastore — and runs it over a study window. It is
// the single entry point used by the command-line tools, the examples, the
// sweep engine, and the benchmark harness.
//
// Entry points: Run executes one Config to its horizon and returns the
// populated, frozen metastore plus run statistics; RunReusing is Run with
// a caller-provided store (Reset first) so sweep workers reuse index-map
// capacity across scenarios; QuickConfig and PaperConfig are the two
// canned scenarios.
//
// Determinism is the package's load-bearing invariant: a Result is a pure
// function of its Config, seed included. The root RNG is split per
// subsystem (corruption, net, rucio, panda, workload, background), so
// adding draws in one subsystem never perturbs another, and Run freezes
// the store before returning so every downstream analysis starts from a
// read-only, concurrently-queryable snapshot.
//
// Every run ingests through one pipe (pipe.go). The record sinks — panda's
// job and file sinks, and rucio's transfer sink after corruption — copy
// each record into a batch; a full batch (ingestBatch puts) is applied
// through the store's Put methods by a goroutine of its own while the
// event loop fills the next, with at most one batch in flight, so the
// store keeps one writer at a time and receives the same put sequence as
// a synchronous sink would. The pipe drains — waits for the batch in
// flight, then applies the partial one — before every observer call and
// before the final Freeze: an observer, and every analysis after Run, sees
// exactly the puts made before it.
package sim
