// Ablation benchmarks for the design choices DESIGN.md calls out: each
// benchmark toggles one mechanism and reports how the headline matching
// statistics move. Run with:
//
//	go test -bench=Ablation -benchmem
package panrucio_test

import (
	"testing"

	"panrucio/internal/coopt"
	"panrucio/internal/core"
	"panrucio/internal/panda"
	"panrucio/internal/records"
	"panrucio/internal/sim"
	"panrucio/internal/workload"
)

// ablationConfig is a reduced 3-day scenario so each ablation run stays
// fast while preserving the matching shape.
func ablationConfig(seed int64) sim.Config {
	cfg := sim.PaperConfig(seed)
	cfg.Days = 3
	return cfg
}

func exactRates(cfg sim.Config) (jobPct, transferPct float64) {
	res := sim.Run(cfg)
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	r := core.NewMatcher(res.Store).RunParallel(jobs, core.Exact, 1)
	return r.MatchedJobPct(), r.MatchedTransferPct()
}

// BenchmarkAblationBaseline records the default exact-match rates the
// other ablations are compared against.
func BenchmarkAblationBaseline(b *testing.B) {
	var jp, tp float64
	for i := 0; i < b.N; i++ {
		jp, tp = exactRates(ablationConfig(int64(i + 1)))
	}
	b.ReportMetric(jp, "job_pct")
	b.ReportMetric(tp, "transfer_pct")
}

// BenchmarkAblationNoCorruption disables metadata degradation: matching
// rates jump by an order of magnitude, quantifying how much of the paper's
// 0.82 % is a data-quality artifact rather than a matching limitation.
func BenchmarkAblationNoCorruption(b *testing.B) {
	var jp, tp float64
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig(int64(i + 1))
		cfg.Corruption.Disable = true
		jp, tp = exactRates(cfg)
	}
	b.ReportMetric(jp, "job_pct")
	b.ReportMetric(tp, "transfer_pct")
}

// BenchmarkAblationNoBackground removes non-job traffic: the matched
// percentages are unchanged (background events carry no jeditaskid), but
// the event volume and the Fig. 3 diagonal collapse.
func BenchmarkAblationNoBackground(b *testing.B) {
	var events int64
	var tp float64
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig(int64(i + 1))
		cfg.DisableBackground = true
		res := sim.Run(cfg)
		events = res.StoredEvents
		jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
		tp = core.NewMatcher(res.Store).RunParallel(jobs, core.Exact, 1).MatchedTransferPct()
	}
	b.ReportMetric(float64(events), "events")
	b.ReportMetric(tp, "transfer_pct")
}

// BenchmarkAblationAllSequentialSites forces every site's storage
// front-end to serve one file at a time (Fig. 10's pathology grid-wide):
// staging time inflates and with it the mean queue-transfer fraction.
func BenchmarkAblationAllSequentialSites(b *testing.B) {
	var meanFrac float64
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig(int64(i + 1))
		cfg.Rucio.SequentialSiteFraction = 0.999999
		res := sim.Run(cfg)
		jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
		r := core.NewMatcher(res.Store).RunParallel(jobs, core.Exact, 1)
		sum, n := 0.0, 0
		for _, m := range r.Matches {
			sum += m.QueueTransferFraction()
			n++
		}
		if n > 0 {
			meanFrac = 100 * sum / float64(n)
		}
	}
	b.ReportMetric(meanFrac, "mean_transfer_pct")
}

// BenchmarkAblationNoDispatchDelay removes the brokerage/pilot latency so
// queuing time is almost pure staging: the transfer-time fractions explode
// toward 100 %, demonstrating why the dispatch delay is load-bearing for
// Fig. 9's shape.
func BenchmarkAblationNoDispatchDelay(b *testing.B) {
	var above75 int
	for i := 0; i < b.N; i++ {
		cfg := ablationConfig(int64(i + 1))
		cfg.Panda.DispatchDelayMean = 1 // effectively zero
		res := sim.Run(cfg)
		jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
		r := core.NewMatcher(res.Store).RunParallel(jobs, core.Exact, 1)
		above75 = 0
		for _, m := range r.Matches {
			if m.QueueTransferFraction() >= 0.75 {
				above75++
			}
		}
	}
	b.ReportMetric(float64(above75), "jobs_above_75pct")
}

// BenchmarkAblationBrokeragePolicies runs the co-optimization comparison
// under contention and reports the mean-queue-time gap between the paper's
// data-locality heuristic and the joint (shared-awareness) policy.
func BenchmarkAblationBrokeragePolicies(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		cfg := coopt.ContentionConfig(int64(i+1), 2, 0.01)
		cfg.Workload = workload.Config{
			InitialDatasets:  80,
			UserTaskInterval: 300,
			ProdTaskInterval: 1200,
			UserJobsMean:     12,
			ProdJobsMean:     20,
		}
		dl := coopt.Evaluate(cfg, panda.DataLocalityPolicy{})
		jt := coopt.Evaluate(cfg, coopt.JointPolicy{})
		gap = dl.MeanQueueS - jt.MeanQueueS
	}
	b.ReportMetric(gap, "queue_gap_s")
}

// BenchmarkAblationMetadataRepair measures the repair-and-rematch uplift:
// exact-matched jobs gained by applying RM2 site inferences to the store.
func BenchmarkAblationMetadataRepair(b *testing.B) {
	var gain int
	for i := 0; i < b.N; i++ {
		res := sim.Run(ablationConfig(int64(i + 1)))
		jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
		up, _ := core.MeasureUplift(res.Store, res.Grid, jobs, core.Exact)
		gain = up.JobGain
	}
	b.ReportMetric(float64(gain), "exact_jobs_gained")
}

// BenchmarkAblationParallelMatcher compares the serial matcher against the
// sharded parallel one on the same store (the paper's scalability note).
func BenchmarkAblationParallelMatcher(b *testing.B) {
	res := sim.Run(ablationConfig(1))
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	m := core.NewMatcher(res.Store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunParallel(jobs, core.RM2, 0)
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}

// BenchmarkAblationSerialMatcher is the serial counterpart.
func BenchmarkAblationSerialMatcher(b *testing.B) {
	res := sim.Run(ablationConfig(1))
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	m := core.NewMatcher(res.Store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunParallel(jobs, core.RM2, 1)
	}
	b.ReportMetric(float64(len(jobs)), "jobs")
}
