package sweep

import (
	"fmt"

	"panrucio/internal/corruption"
	"panrucio/internal/sim"
	"panrucio/internal/simtime"
	"panrucio/internal/verify"
)

// Scenario is one point of a sweep grid: a fully specified sim.Config plus
// a stable identifier. IDs are unique within a grid and carry the varied
// knobs ("corr=10%/seed=3"), so a report row is self-describing.
type Scenario struct {
	// ID names the scenario; report rows and JSON objects are keyed by it.
	ID string
	// X is the scenario's coordinate on the swept axis (the corruption
	// rate, the seed, ...) — the x value of the match-rate curves. Grids
	// built from more than one axis fall back to the scenario index.
	X float64
	// Config is the complete scenario; the engine never mutates it.
	Config sim.Config
	// Tamper, when non-nil, mutates the store's sealed segments at rest
	// AFTER the run and its matching passes, then audits: the integrity
	// half of E15. The matching rates above measure tolerance of ingest
	// corruption; the Detection outcome measures detection of post-seal
	// tamper.
	Tamper *verify.TamperConfig
}

// Variation is one value of an axis: a label fragment for the scenario ID,
// the numeric coordinate, and the config mutation it stands for.
type Variation struct {
	Label string
	X     float64
	Apply func(*sim.Config)
}

// Axis is one swept dimension of a grid.
type Axis struct {
	Name   string
	Points []Variation
}

// Expand builds the cross product of the axes over a base config, in
// deterministic order: the last axis varies fastest, mirroring nested
// loops. Scenario IDs join the point labels with "/"; X is the point's
// coordinate for a single axis and the scenario index otherwise.
func Expand(base sim.Config, axes ...Axis) []Scenario {
	scenarios := []Scenario{{Config: base}}
	for _, ax := range axes {
		var next []Scenario
		for _, sc := range scenarios {
			for _, pt := range ax.Points {
				cfg := sc.Config
				if pt.Apply != nil {
					pt.Apply(&cfg)
				}
				id := pt.Label
				if sc.ID != "" {
					id = sc.ID + "/" + pt.Label
				}
				next = append(next, Scenario{ID: id, X: pt.X, Config: cfg})
			}
		}
		scenarios = next
	}
	if len(axes) != 1 {
		for i := range scenarios {
			scenarios[i].X = float64(i)
		}
	}
	return scenarios
}

// zeroable maps a swept probability onto corruption.Config's convention
// that zero means "use the calibrated default": a literal 0 becomes the
// negative sentinel the config clamps to exactly zero.
func zeroable(p float64) float64 {
	if p == 0 {
		return -1
	}
	return p
}

// DefaultRampRates is the corruption ramp of the canned robustness sweep
// (experiment E14): 0 % to 50 % in 10-point steps.
func DefaultRampRates() []float64 { return []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5} }

// CorruptionAxis sweeps the job-correlated corruption channels — the
// per-pilot-batch site-label loss and the per-event jeditaskid drop — over
// the given rates. Rate 0 turns both channels fully off (the clean-metadata
// end of E14); the calibrated defaults sit at 0.40 and 0.02.
func CorruptionAxis(rates []float64) Axis {
	ax := Axis{Name: "corruption"}
	for _, r := range rates {
		rate := r
		ax.Points = append(ax.Points, Variation{
			Label: fmt.Sprintf("corr=%d%%", int(rate*100+0.5)),
			X:     rate,
			Apply: func(cfg *sim.Config) {
				cfg.Corruption.UnknownSiteProbTaskID = zeroable(rate)
				cfg.Corruption.DropTaskIDProb = zeroable(rate)
			},
		})
	}
	return ax
}

// SeedAxis sweeps the root seed: the fan-out for variance estimation.
func SeedAxis(seeds ...int64) Axis {
	ax := Axis{Name: "seed"}
	for _, s := range seeds {
		seed := s
		ax.Points = append(ax.Points, Variation{
			Label: fmt.Sprintf("seed=%d", seed),
			X:     float64(seed),
			Apply: func(cfg *sim.Config) { cfg.Seed = seed },
		})
	}
	return ax
}

// WorkloadMixAxis sweeps the user/production task mix by setting the mean
// task inter-arrival times explicitly: analysis-heavy, the quick-scenario
// balance, and production-heavy arrivals.
func WorkloadMixAxis() Axis {
	set := func(user, prod simtime.VTime) func(*sim.Config) {
		return func(cfg *sim.Config) {
			cfg.Workload.UserTaskInterval = user
			cfg.Workload.ProdTaskInterval = prod
		}
	}
	return Axis{Name: "mix", Points: []Variation{
		{Label: "mix=user-heavy", X: 0, Apply: set(300, 3600)},
		{Label: "mix=balanced", X: 1, Apply: set(600, 1800)},
		{Label: "mix=prod-heavy", X: 2, Apply: set(1200, 900)},
	}}
}

// BackgroundAxis sweeps the non-job traffic intensity. Scale 0 disables
// background traffic entirely; scale s > 0 multiplies every background
// arrival rate by s (by dividing the configured mean intervals, which must
// be set on the base config — sim.QuickConfig sets all four).
func BackgroundAxis(scales ...float64) Axis {
	ax := Axis{Name: "background"}
	for _, s := range scales {
		scale := s
		v := Variation{Label: fmt.Sprintf("bg=%gx", scale), X: scale}
		if scale == 0 {
			v.Label = "bg=off"
			v.Apply = func(cfg *sim.Config) { cfg.DisableBackground = true }
		} else {
			v.Apply = func(cfg *sim.Config) {
				b := &cfg.Background
				for _, iv := range []*simtime.VTime{
					&b.ExportInterval, &b.RebalanceInterval,
					&b.ConsolidationInterval, &b.SubscriptionInterval,
				} {
					if *iv > 0 {
						*iv = simtime.VTime(float64(*iv) / scale)
						if *iv < 1 {
							*iv = 1
						}
					}
				}
			}
		}
		ax.Points = append(ax.Points, v)
	}
	return ax
}

// CorruptionRamp is the canned robustness sweep behind experiment E14:
// the base scenario with the job-correlated corruption channels ramped
// over the given rates (see CorruptionAxis). Exact matching degrades as
// the ramp climbs while RM2 holds — the paper's robustness ordering,
// measured rather than asserted.
func CorruptionRamp(base sim.Config, rates []float64) []Scenario {
	return Expand(base, CorruptionAxis(rates))
}

// SeedFanOut is the canned variance sweep: n scenarios differing only in
// seed, starting at the base config's (filled) seed.
func SeedFanOut(base sim.Config, n int) []Scenario {
	start := base.Seed
	if start == 0 {
		start = 1
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = start + int64(i)
	}
	return Expand(base, SeedAxis(seeds...))
}

// MixGrid is the canned workload-shape sweep: task mix crossed with
// background-traffic intensity (off / calibrated / doubled).
func MixGrid(base sim.Config) []Scenario {
	return Expand(base, WorkloadMixAxis(), BackgroundAxis(0, 1, 2))
}

// DefaultVerifyProb is the per-row tamper probability of the canned
// verify grid — the E15 acceptance point (detection must be complete for
// any p >= 0.05).
const DefaultVerifyProb = 0.05

// soloChannel builds a corruption config with exactly one channel active
// at rate p: every other probability is forced to the negative sentinel
// (exactly zero after fill), so the tolerance columns isolate the channel.
func soloChannel(ch verify.Channel, p float64) corruption.Config {
	c := corruption.Config{
		DropTransferProb:      -1,
		DropTaskIDProb:        -1,
		JoinBreakProb:         -1,
		UnknownSiteProb:       -1,
		UnknownSiteProbTaskID: -1,
		GarbleSiteProb:        -1,
		SizeJitterProb:        -1,
	}
	switch ch {
	case verify.ChannelDrop:
		c.DropTransferProb = zeroable(p)
	case verify.ChannelTaskID:
		c.DropTaskIDProb = zeroable(p)
	case verify.ChannelJoin:
		c.JoinBreakProb = zeroable(p)
	case verify.ChannelSite:
		c.UnknownSiteProb = zeroable(p)
		c.UnknownSiteProbTaskID = zeroable(p)
	case verify.ChannelGarble:
		c.GarbleSiteProb = zeroable(p)
	case verify.ChannelSize:
		c.SizeJitterProb = zeroable(p)
	}
	return c
}

// VerifyGrid is the canned integrity sweep behind experiment E15: one
// scenario per corruption channel, each pairing the channel's PRE-INGEST
// corruption at rate p (every other channel off — the tolerance columns,
// E14's axis isolated per channel) with the same channel's POST-SEAL
// at-rest tamper at rate p (the detection column), plus a clean control
// scenario asserting zero false positives. Ingest corruption is invisible
// to commitments (it happens before sealing) and tamper is invisible to
// the matching rates (it happens after them) — the grid shows both sides
// of that line: RM1/RM2 tolerate the former, the audits detect 100% of
// the latter.
func VerifyGrid(base sim.Config, p float64) []Scenario {
	if p <= 0 {
		p = DefaultVerifyProb
	}
	clean := base
	clean.Corruption = corruption.Config{Disable: true}
	scenarios := []Scenario{{ID: "clean", X: 0, Config: clean,
		Tamper: &verify.TamperConfig{Prob: -1, Seed: base.Seed}}}
	for i, ch := range verify.Channels() {
		cfg := base
		cfg.Corruption = soloChannel(ch, p)
		scenarios = append(scenarios, Scenario{
			ID:     fmt.Sprintf("tamper=%s", ch),
			X:      float64(i + 1),
			Config: cfg,
			Tamper: &verify.TamperConfig{Prob: p, Channels: []verify.Channel{ch}, Seed: base.Seed},
		})
	}
	return scenarios
}

// Canned builds the named canned grid over sim.QuickConfig(seed):
// "robustness" is the E14 corruption ramp, "seeds" an 8-way seed fan-out,
// "mix" the workload mix crossed with background intensity, and "verify"
// the E15 integrity grid. cmd/sweep, POST /api/sweep and experiments E14
// and E15 all build their grids here.
func Canned(name string, seed int64) ([]Scenario, error) {
	base := sim.QuickConfig(seed)
	switch name {
	case "robustness":
		return CorruptionRamp(base, DefaultRampRates()), nil
	case "seeds":
		return SeedFanOut(base, 8), nil
	case "mix":
		return MixGrid(base), nil
	case "verify":
		return VerifyGrid(base, DefaultVerifyProb), nil
	}
	return nil, fmt.Errorf("unknown grid %q (want robustness, seeds, mix, or verify)", name)
}
