package corruption

import (
	"strconv"

	"panrucio/internal/records"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// Config sets corruption probabilities. Zero values take the calibrated
// defaults (see DESIGN.md shape targets); because of that, a probability
// cannot be set to literal zero by assigning 0 — pass any negative value
// instead and fill clamps it to exactly 0. Sweeps that ramp a channel down
// to "off" (internal/sweep, experiment E14) rely on this convention.
type Config struct {
	// Disable turns every channel off — events pass through untouched.
	// Ablation studies use this to measure the matching framework against
	// clean metadata.
	Disable bool
	// DropTransferProb loses the event entirely (per event, default 0.01).
	DropTransferProb float64
	// DropTaskIDProb clears jeditaskid on a job-correlated event (per
	// event, default 0.02).
	DropTaskIDProb float64
	// JoinBreakProb rewrites the dataset name recorded on job-correlated
	// download events of an afflicted dataset with a production "_tid"
	// suffix (per dataset, default 0.92). Uploads are immune: they
	// reference the job's own freshly created output dataset, so the names
	// agree — which is why the paper's Analysis Upload row matches at ~95 %.
	JoinBreakProb float64
	// UnknownSiteProb replaces the source or destination site with UNKNOWN
	// on background (no-taskid) events (per event, default 0.02) — keeps
	// Fig. 3's UNKNOWN row/column modest, as in the paper.
	UnknownSiteProb float64
	// UnknownSiteProbTaskID is the (much higher) UNKNOWN rate for
	// job-correlated *download* events, applied per pilot batch (default
	// 0.40) — the Table 3 pathology RM2 recovers from. Uploads are exempt:
	// the pilot registers them synchronously with its own site identity,
	// which is why the paper's "relatively straightforward" Analysis Upload
	// scheme matches at ~95 %.
	UnknownSiteProbTaskID float64
	// GarbleSiteProb replaces a site label with an invalid string (per
	// event, default 0.015).
	GarbleSiteProb float64
	// SizeJitterProb records the file size imprecisely (per event, default
	// 0.015); the error is uniform in ±SizeJitterMax bytes, never zero.
	SizeJitterProb float64
	// SizeJitterMax bounds the recorded-size error (default 4096 bytes).
	SizeJitterMax int64
}

func (c *Config) fill() {
	def := func(p *float64, v float64) {
		if *p == 0 {
			*p = v
		}
		if *p < 0 {
			*p = 0
		}
	}
	def(&c.DropTransferProb, 0.01)
	def(&c.DropTaskIDProb, 0.02)
	def(&c.JoinBreakProb, 0.92)
	def(&c.UnknownSiteProb, 0.02)
	def(&c.UnknownSiteProbTaskID, 0.40)
	def(&c.GarbleSiteProb, 0.015)
	def(&c.SizeJitterProb, 0.015)
	if c.SizeJitterMax == 0 {
		c.SizeJitterMax = 4096
	}
}

// Stats tallies what the corruptor did, surfaced after a run as
// sim.Result.Corruption.
type Stats struct {
	Seen         int64
	Dropped      int64
	TaskIDLost   int64
	JoinBroken   int64
	SiteUnknowns int64
	SiteGarbled  int64
	SizeJittered int64
}

// Corruptor mutates transfer events in place. Use one per simulation with a
// dedicated RNG split.
type Corruptor struct {
	cfg Config
	rng *simtime.RNG
	// salted is the hash of the salt's decimal form and "/", the prefix of
	// every key a correlated channel hashes.
	salted fnv1a
	// Stats is exported for post-run inspection.
	Stats Stats
}

// New builds a corruptor with the given config (zero fields defaulted).
func New(rng *simtime.RNG, cfg Config) *Corruptor {
	cfg.fill()
	salt := uint64(rng.Int63n(1 << 62))
	return &Corruptor{cfg: cfg, rng: rng, salted: saltedPrefix(salt)}
}

// Config reports the effective configuration.
func (c *Corruptor) Config() Config { return c.cfg }

// fnv1a is a running 64-bit FNV-1a hash, hash/fnv's New64a without the
// interface: feeding it the parts of a key one by one hashes the bytes the
// assembled key would hold, with nothing allocated.
type fnv1a uint64

const (
	fnvOffset fnv1a = 14695981039346656037
	fnvPrime  fnv1a = 1099511628211
)

func (h fnv1a) str(s string) fnv1a {
	for i := 0; i < len(s); i++ {
		h = (h ^ fnv1a(s[i])) * fnvPrime
	}
	return h
}

// int feeds v in decimal, as fmt's %d writes it.
func (h fnv1a) int(v int64) fnv1a {
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], v, 10) {
		h = (h ^ fnv1a(b)) * fnvPrime
	}
	return h
}

// saltedPrefix hashes the salt's decimal form and "/": every correlated
// channel hashes "<salt>/<key>".
func saltedPrefix(salt uint64) fnv1a {
	return fnvOffset.str(strconv.FormatUint(salt, 10)).str("/")
}

// hashBool makes a deterministic, seed-dependent draw from h, the hash of
// a salted key: identical keys always decide alike within one corruptor.
func hashBool(h fnv1a, p float64) bool {
	return p >= 1 || p > 0 && float64(uint64(h)%1_000_000)/1_000_000 < p
}

// joinKey hashes the key of a dataset's join-breakage draw, "join/" and
// the dataset name.
func (c *Corruptor) joinKey(dataset string) fnv1a {
	return c.salted.str("join/").str(dataset)
}

// batchKey hashes the key of a pilot fetch session, "batch/%d/%s/%s/%s/%d"
// of the task, both sites, the activity and the submission hour: one task
// staging to one site via one activity within one hour shares a metadata
// path, so endpoint loss hits the whole batch together.
func (c *Corruptor) batchKey(ev *records.TransferEvent) fnv1a {
	return c.salted.str("batch/").int(ev.JediTaskID).
		str("/").str(ev.SourceSite).
		str("/").str(ev.DestinationSite).
		str("/").str(string(ev.Activity)).
		str("/").int(int64(ev.SubmittedAt / simtime.Hour))
}

// tidName is the name a join-broken dataset is recorded under: the name,
// "_tid" and its hash in eight zero-padded digits (fmt's "%s_tid%08d"),
// built in one allocation.
func tidName(dataset string) string {
	n := uint64(fnvOffset.str(dataset)) % 1e8
	var digits [8]byte
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i] = byte('0' + n%10)
		n /= 10
	}
	return dataset + "_tid" + string(digits[:])
}

// Transfer applies corruption to one event. It returns false when the event
// is dropped (caller must not ingest it). The original event is mutated.
func (c *Corruptor) Transfer(ev *records.TransferEvent) bool {
	c.Stats.Seen++
	if c.cfg.Disable {
		return true
	}
	if c.rng.Bool(c.cfg.DropTransferProb) {
		c.Stats.Dropped++
		return false
	}
	jobCorrelated := ev.JediTaskID != 0

	// Per-dataset join breakage (downloads only; see Config docs).
	if jobCorrelated && ev.IsDownload && hashBool(c.joinKey(ev.Dataset), c.cfg.JoinBreakProb) {
		ev.Dataset = tidName(ev.Dataset)
		c.Stats.JoinBroken++
	}

	// Endpoint loss: per pilot batch for job-correlated downloads, per
	// event for everything else (uploads, background traffic).
	lost := false
	if jobCorrelated && ev.IsDownload {
		lost = hashBool(c.batchKey(ev), c.cfg.UnknownSiteProbTaskID)
	} else {
		lost = c.rng.Bool(c.cfg.UnknownSiteProb)
	}
	if lost {
		// Downloads lose their destination label and uploads their source
		// (both are the job's computing site — the Table 3 pattern);
		// background events lose either side.
		switch {
		case jobCorrelated && ev.IsUpload:
			ev.SourceSite = topology.UnknownSite
		case jobCorrelated:
			ev.DestinationSite = topology.UnknownSite
		case c.rng.Bool(0.5):
			ev.SourceSite = topology.UnknownSite
		default:
			ev.DestinationSite = topology.UnknownSite
		}
		c.Stats.SiteUnknowns++
	}

	if c.rng.Bool(c.cfg.GarbleSiteProb) {
		if c.rng.Bool(0.5) {
			ev.SourceSite = "gsiftp://invalid/" + ev.SourceSite
		} else {
			ev.DestinationSite = "gsiftp://invalid/" + ev.DestinationSite
		}
		c.Stats.SiteGarbled++
	}

	if jobCorrelated && c.rng.Bool(c.cfg.DropTaskIDProb) {
		ev.JediTaskID = 0
		c.Stats.TaskIDLost++
	}

	if c.rng.Bool(c.cfg.SizeJitterProb) {
		delta := c.rng.Int63n(2*c.cfg.SizeJitterMax) - c.cfg.SizeJitterMax
		if delta == 0 {
			delta = 1
		}
		ev.FileSize += delta
		if ev.FileSize < 1 {
			ev.FileSize = 1
		}
		c.Stats.SizeJittered++
	}
	return true
}
