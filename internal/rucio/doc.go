// Package rucio implements the data-management substrate: a two-level
// DID namespace (files in datasets), replicas on Rucio Storage Elements,
// replication to a destination RSE through EnsureReplicas (the transfers a
// rule evaluation would trigger, with no rule kept afterwards), pilot
// stage-in/stage-out transfers, and background data-management traffic.
// Completed transfers are emitted as records.TransferEvent through a
// pluggable sink — the same event stream the paper queries from
// OpenSearch.
//
// Replica lists live on each *FileInfo as (RSE id, state) entries, so the
// catalog's replica operations take the file and never hash an LFN; the
// files map remains as AddFile's duplicate-LFN check. New registers the
// grid's RSEs with the catalog first and in order, so catalog RSE id i is
// grid RSE i and source selection scores replicas through topology's
// per-RSE tables; equal scores go to the smaller RSE name.
//
// Entry points: New binds the catalog to an engine, grid, network, and
// event sink (sim.Run interposes the corruption layer there);
// StartBackground adds the non-job traffic — Tier-0 export, rebalancing,
// consolidation, subscriptions — that dominates event volume but carries
// no jeditaskid. Invariants: every emitted event reflects a transfer the
// network actually completed in virtual time, events carry a jeditaskid
// only when caused by a pilot acting for a task, and all randomness comes
// from the package's RNG split, so one seed reproduces the event stream
// exactly.
package rucio
