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
// each record into a batch (panda lends its records for the call, so the
// copy is the only one). A full batch (ingestBatch puts) joins a FIFO of
// at most ingestQueue batches, which one long-lived goroutine applies
// through the store's Put methods in queue order while the event loop
// fills the next, so the store keeps one writer and receives the same put
// sequence as a synchronous sink would. The pipe drains — waits until the
// applier has handed back every queued batch, then applies the partial
// one — before every observer call and before the final Freeze, and its
// applier exits when the run ends: an observer, and every analysis after
// Run, sees exactly the puts made before it.
package sim
