// Package netsim models the network substrate of the simulated grid: a
// lazily-created mesh of directed links between sites. Each link has a
// nominal bandwidth (from the topology), an AR(1) stochastic fluctuation
// process, and a diurnal modulation; concurrent transfers on a link share
// its instantaneous capacity fairly, and a per-link concurrency cap queues
// the excess (an FTS-like admission discipline). The queue is a FIFO with
// no cancellation: a started transfer always completes, and a freed slot
// goes to the queue's head, so admission never scans the waiting
// transfers.
//
// This reproduces the phenomenology behind the paper's Figs. 7 and 8:
// transfer rates that are unsteady at short timescales, asymmetric between
// the two directions of a site pair, and generally higher for local (LAN)
// movement than for wide-area movement.
//
// Entry point: New binds the network to an engine, grid, and RNG split;
// rucio submits transfers and receives completion callbacks in virtual
// time. All stochastic behavior draws from the split RNG on the
// single-goroutine engine, so a seed reproduces every transfer duration
// exactly.
package netsim
