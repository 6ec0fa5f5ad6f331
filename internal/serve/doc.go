// Package serve is the query-serving front end over the metastore: an
// HTTP/JSON handler layer exposing the paper's experiment analyses
// (E1–E15, the entries of experiments.Registry), match lookups by pandaid
// and jeditaskid, store and segment statistics, and sweep launches — the
// ROADMAP's "millions of users" direction made concrete and measurable
// (cmd/loadgen drives it at high concurrency and reports latency/QPS
// metrics).
//
// A Server wraps either a frozen store (NewFrozen: a completed sim.Result)
// or a live one (NewLive: the scenario runs in the background and
// publishes the live store at every sim.RunWithObserver checkpoint).
// Three invariants carry the rest of the design:
//
//   - Epoch windows. The live scenario's goroutine holds the server's
//     write lock while ingesting; each observer checkpoint bumps the store
//     epoch and opens a read window in which queued request handlers run
//     concurrently against the quiescent store — reads never interleave
//     with ingest, and readers never serialize against each other (the
//     metastore's lazy tail views publish through atomic pointers). The
//     final checkpoint freezes the store and leaves the window open for
//     good, which is also the degenerate state NewFrozen starts in.
//
//   - Epoch-keyed caching. Analysis bodies are cached under (config
//     digest, experiment id, store epoch), so a repeated query is one map
//     hit — and a cached body can never leak across epochs: sealing new
//     segments advances the epoch, which strands the old entries (pruned
//     on publish). Store-independent bodies (sweep launches, E14, E15)
//     cache under epoch 0 and survive epoch advances; they read no store,
//     so they render outside any read window. Concurrent misses for the
//     same key collapse into one computation (the rest wait).
//
//   - Deterministic bodies. Every response body except /api/meta/layout
//     (which deliberately reports the physical layout) is byte-identical
//     for any shard count, segment size, and matcher worker count — the
//     sweep engine's output discipline extended to the network: the
//     config digest itself zeroes the performance-only knobs so
//     equivalent deployments share cache keys. Pinned by the golden-body
//     suite in serve_test.go.
package serve
