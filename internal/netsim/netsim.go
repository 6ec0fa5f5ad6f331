package netsim

import (
	"fmt"
	"math"

	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// Options tunes the network model. Zero fields take the documented defaults.
type Options struct {
	// FluctuationInterval is the AR(1) step length (default 300s).
	FluctuationInterval simtime.VTime
	// Phi is the AR(1) persistence coefficient in [0,1) (default 0.85).
	Phi float64
	// NoiseSigma is the AR(1) innovation standard deviation (default 0.22).
	NoiseSigma float64
	// DiurnalAmplitude scales the sinusoidal day/night modulation (default 0.30).
	DiurnalAmplitude float64
	// MaxActivePerLink caps concurrent transfers on a link; extra transfers
	// queue FIFO (default 16). The sequential per-job staging seen in the
	// paper's Fig. 10 emerges when effective concurrency collapses to 1.
	MaxActivePerLink int
	// PerTransferCapBps bounds a single transfer's rate regardless of link
	// headroom (default 300 MB/s) — the storage-door per-stream limit.
	// This is why the paper's per-connection rates top out at hundreds of
	// MBps (Figs. 7-8) even on multi-GB/s links, and why stage-in occupies
	// a visible fraction of job queuing time.
	PerTransferCapBps float64
	// MinFactor floors the fluctuation factor (default 0.05) so links never
	// stall entirely.
	MinFactor float64
	// MaxFactor caps the fluctuation factor (default 2.5).
	MaxFactor float64
}

func (o *Options) fill() {
	if o.FluctuationInterval == 0 {
		o.FluctuationInterval = 300
	}
	if o.Phi == 0 {
		o.Phi = 0.85
	}
	if o.NoiseSigma == 0 {
		o.NoiseSigma = 0.22
	}
	if o.DiurnalAmplitude == 0 {
		o.DiurnalAmplitude = 0.30
	}
	if o.MaxActivePerLink == 0 {
		o.MaxActivePerLink = 16
	}
	if o.PerTransferCapBps == 0 {
		o.PerTransferCapBps = 300e6
	}
	if o.MinFactor == 0 {
		o.MinFactor = 0.05
	}
	if o.MaxFactor == 0 {
		o.MaxFactor = 2.5
	}
}

// Transfer is one file movement in flight. Timestamps are filled in as the
// transfer progresses; Finished is zero until completion.
type Transfer struct {
	ID       int64
	Src, Dst string
	Bytes    int64

	Enqueued simtime.VTime
	Started  simtime.VTime
	Finished simtime.VTime

	remaining float64
	done      func(*Transfer)
}

// QueueDelay is the time the transfer spent waiting for a link slot.
func (t *Transfer) QueueDelay() simtime.VTime { return t.Started - t.Enqueued }

// Duration is the active transfer time (zero until finished).
func (t *Transfer) Duration() simtime.VTime {
	if t.Finished == 0 {
		return 0
	}
	return t.Finished - t.Started
}

// Throughput is the average achieved rate in bytes/s (zero until finished).
func (t *Transfer) Throughput() float64 {
	d := t.Duration()
	if d <= 0 {
		// Sub-second transfer: report the whole size as a 1-second rate,
		// matching how production monitoring rounds instantaneous events.
		return float64(t.Bytes)
	}
	return float64(t.Bytes) / d.Seconds()
}

type linkKey struct{ src, dst string }

type link struct {
	key     linkKey
	nominal float64 // bytes/s at factor 1, diurnal 1
	phase   float64 // diurnal phase offset, radians

	factor     float64 // AR(1) state
	factorAt   simtime.VTime
	lastUpdate simtime.VTime

	// active holds the transfers sharing the link; queue[head:] is the
	// FIFO of transfers waiting for a slot, admitted from its head.
	active []*Transfer
	queue  []*Transfer
	head   int

	// wake is the handle of the link's next service event, and onWake the
	// callback every wake runs, built once with the link.
	wake   simtime.Event
	onWake func()
	rng    *simtime.RNG
}

// Network is the simulation-wide link mesh. Not safe for concurrent use;
// the DES kernel is single-goroutine by design.
type Network struct {
	eng  *simtime.Engine
	grid *topology.Grid
	opts Options
	rng  *simtime.RNG

	links  map[linkKey]*link
	nextID int64

	// Aggregate counters for quick inspection and benchmarks.
	CompletedTransfers int64
	CompletedBytes     int64
}

// New creates a network over the given grid. rng must be dedicated to the
// network (use RNG.Split).
func New(eng *simtime.Engine, grid *topology.Grid, rng *simtime.RNG, opts Options) *Network {
	opts.fill()
	return &Network{eng: eng, grid: grid, opts: opts, rng: rng, links: make(map[linkKey]*link)}
}

func (n *Network) linkFor(src, dst string) *link {
	k := linkKey{src, dst}
	if l, ok := n.links[k]; ok {
		return l
	}
	lr := n.rng.Split(fmt.Sprintf("link/%s->%s", src, dst))
	l := &link{
		key:      k,
		nominal:  topology.LinkGbps(n.grid, src, dst) * 1e9 / 8, // Gb/s -> bytes/s
		phase:    lr.Uniform(0, 2*math.Pi),
		factor:   1 + lr.Normal(0, 0.1),
		factorAt: n.eng.Now(),
		rng:      lr,
	}
	if l.factor < n.opts.MinFactor {
		l.factor = n.opts.MinFactor
	}
	l.lastUpdate = n.eng.Now()
	l.onWake = func() { n.service(l) }
	n.links[k] = l
	return l
}

// diurnal returns the day/night modulation at time t for this link.
func (n *Network) diurnal(l *link, t simtime.VTime) float64 {
	frac := float64(t%simtime.Day) / float64(simtime.Day)
	return 1 + n.opts.DiurnalAmplitude*math.Sin(2*math.Pi*frac+l.phase)
}

// advanceFactor evolves the AR(1) state to time t using the closed-form
// k-step transition: mean reverts geometrically, innovations accumulate
// with variance sigma^2 (1-phi^2k)/(1-phi^2). O(1) regardless of gap size.
func (n *Network) advanceFactor(l *link, t simtime.VTime) {
	steps := int64((t - l.factorAt) / n.opts.FluctuationInterval)
	if steps <= 0 {
		return
	}
	phiK := math.Pow(n.opts.Phi, float64(steps))
	variance := n.opts.NoiseSigma * n.opts.NoiseSigma
	if n.opts.Phi < 1 {
		variance *= (1 - phiK*phiK) / (1 - n.opts.Phi*n.opts.Phi)
	} else {
		variance *= float64(steps)
	}
	l.factor = 1 + phiK*(l.factor-1) + l.rng.Normal(0, math.Sqrt(variance))
	if l.factor < n.opts.MinFactor {
		l.factor = n.opts.MinFactor
	}
	if l.factor > n.opts.MaxFactor {
		l.factor = n.opts.MaxFactor
	}
	l.factorAt += simtime.VTime(steps) * n.opts.FluctuationInterval
}

// rate returns the instantaneous total link rate in bytes/s.
func (n *Network) rate(l *link, t simtime.VTime) float64 {
	n.advanceFactor(l, t)
	r := l.nominal * l.factor * n.diurnal(l, t)
	if r < 1 {
		r = 1
	}
	return r
}

// Start enqueues a transfer of size bytes from src to dst. done (may be nil)
// fires on completion. Size must be positive; zero/negative sizes complete
// instantly at the current time.
func (n *Network) Start(src, dst string, bytes int64, done func(*Transfer)) *Transfer {
	n.nextID++
	tr := &Transfer{
		ID: n.nextID, Src: src, Dst: dst, Bytes: bytes,
		Enqueued:  n.eng.Now(),
		remaining: float64(bytes),
		done:      done,
	}
	if bytes <= 0 {
		tr.Started = n.eng.Now()
		tr.Finished = n.eng.Now()
		n.CompletedTransfers++
		if done != nil {
			done(tr)
		}
		return tr
	}
	l := n.linkFor(src, dst)
	l.queue = append(l.queue, tr)
	n.service(l)
	return tr
}

// perRate is the per-transfer share of the link at time t: fair share of
// the instantaneous link rate, bounded by the storage-door stream cap.
func (n *Network) perRate(l *link, t simtime.VTime, active int) float64 {
	per := n.rate(l, t) / float64(active)
	if per > n.opts.PerTransferCapBps {
		per = n.opts.PerTransferCapBps
	}
	return per
}

// progress applies elapsed time at the current shared rate to all active
// transfers on the link.
func (n *Network) progress(l *link, now simtime.VTime) {
	dt := (now - l.lastUpdate).Seconds()
	if dt > 0 && len(l.active) > 0 {
		per := n.perRate(l, l.lastUpdate, len(l.active))
		for _, tr := range l.active {
			tr.remaining -= per * dt
		}
	}
	l.lastUpdate = now
}

// service advances the link, completes finished transfers, admits queued
// ones, and schedules the next wake event.
func (n *Network) service(l *link) {
	now := n.eng.Now()
	n.progress(l, now)

	// Sweep completions. Callbacks are deferred to a same-instant engine
	// event: invoking them here could re-enter service (a callback that
	// starts another transfer on this link) while the link state is
	// mid-update.
	kept := l.active[:0]
	for _, tr := range l.active {
		if tr.remaining > 0.5 {
			kept = append(kept, tr)
			continue
		}
		tr.Finished = now
		n.CompletedTransfers++
		n.CompletedBytes += tr.Bytes
		if tr.done != nil {
			n.eng.After(0, func() { tr.done(tr) })
		}
	}
	l.active = kept

	// Admit from the head of the FIFO while slots are free, so a call
	// visits the active set and the transfers it admits, never the whole
	// queue.
	for l.head < len(l.queue) && len(l.active) < n.opts.MaxActivePerLink {
		tr := l.queue[l.head]
		l.queue[l.head] = nil
		l.head++
		tr.Started = now
		l.active = append(l.active, tr)
	}
	// Once the admitted prefix is at least half the queue, move the
	// waiting transfers to the front, so the array is reused rather than
	// regrown; a move copies no more entries than were admitted since the
	// last one.
	if l.head > 0 && 2*l.head >= len(l.queue) {
		k := copy(l.queue, l.queue[l.head:])
		clear(l.queue[k:])
		l.queue, l.head = l.queue[:k], 0
	}

	// Schedule the next wake: earliest completion at the current shared
	// rate, capped at the fluctuation interval so rate changes take effect.
	// Arming the link's handle supersedes the wake it held.
	if len(l.active) == 0 {
		l.wake.Cancel()
		return
	}
	per := n.perRate(l, now, len(l.active))
	minRem := math.Inf(1)
	for _, tr := range l.active {
		if tr.remaining < minRem {
			minRem = tr.remaining
		}
	}
	eta := simtime.VTime(math.Ceil(minRem / per))
	if eta < 1 {
		eta = 1
	}
	if eta > n.opts.FluctuationInterval {
		eta = n.opts.FluctuationInterval
	}
	// now+eta is never in the past, so Arm cannot fail.
	_ = n.eng.Arm(&l.wake, now+eta, l.onWake)
}

// ActiveTransfers reports how many transfers are currently in flight across
// all links (excluding queued).
func (n *Network) ActiveTransfers() int {
	total := 0
	for _, l := range n.links {
		total += len(l.active)
	}
	return total
}

// QueuedTransfers reports how many transfers are waiting for a link slot.
func (n *Network) QueuedTransfers() int {
	total := 0
	for _, l := range n.links {
		total += len(l.queue) - l.head
	}
	return total
}

// LinkCount reports how many directed links have been instantiated.
func (n *Network) LinkCount() int { return len(n.links) }
