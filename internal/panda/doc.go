// Package panda implements the workload-management substrate: JEDI tasks
// and PanDA jobs, data-locality brokerage, per-site pilot slots, the pilot
// stage-in / payload / stage-out lifecycle, and emission of job and file
// metadata records. Together with the rucio package it generates the two
// metadata streams the paper's matching framework correlates.
//
// Entry point: NewSystem binds the manager to an engine, grid, and rucio
// instance, with sinks for the job and JEDI-file records it emits (the
// metastore's PutJob/PutFile in sim.Run). Brokerage is pluggable via the
// BrokerPolicy interface — DataLocalityPolicy is the paper's
// production heuristic, and internal/coopt supplies the shared-awareness
// alternatives.
//
// Per-site state lives in a slice in grid.Sites() order, and each job
// points at its site's state from brokerage on. DataLocalityPolicy scores
// a reused per-site []int64 of input bytes built from catalog RSE ids,
// scanning in SiteNames order with a strict >, so ties go to the first
// site; InputBytesAt stays the by-name probe.
//
// Invariant: job records deliberately carry the pandaid the transfer
// events lack; the asymmetry between the two streams is the paper's
// central data problem, so nothing here may leak job identity into
// rucio's events.
package panda
