// Quickstart: simulate two days of the grid, link PanDA jobs to Rucio
// transfer events with the exact and relaxed matching strategies, and
// print the Table 2 comparison. This is the smallest end-to-end use of the
// public pipeline: sim.Run -> metastore -> core.Matcher -> analysis tables.
package main

import (
	"fmt"

	"panrucio/internal/analysis"
	"panrucio/internal/core"
	"panrucio/internal/records"
	"panrucio/internal/sim"
)

func main() {
	// 1. Simulate a reduced two-day scenario (deterministic for the seed).
	res := sim.Run(sim.QuickConfig(42))
	fmt.Printf("simulated window %s .. %s\n", res.WindowFrom, res.WindowTo)
	fmt.Printf("stored %d transfer events (%d with jeditaskid), %d job records\n\n",
		res.Store.TransferCount(), res.Store.TransfersWithTaskID(), res.Store.JobCount())

	// 2. Query the user jobs completed in the window (the paper's job set).
	jobs := res.Store.Jobs(res.WindowFrom, res.WindowTo, records.LabelUser)
	fmt.Printf("user jobs completed in window: %d\n\n", len(jobs))

	// 3. Run the three matching strategies and print the Table 2 pair.
	matcher := core.NewMatcher(res.Store)
	cmp := analysis.CompareMethods(matcher, jobs, 1)
	fmt.Println(cmp.TransferCountTable().Render())
	fmt.Println(cmp.JobCountTable().Render())

	// 4. Inspect one match in detail.
	if len(cmp.Exact.Matches) > 0 {
		m := cmp.Exact.Matches[0]
		fmt.Printf("example match: job %d at %s linked to %d transfer(s), "+
			"transfer time = %.1f%% of queuing time\n",
			m.Job.PandaID, m.Job.ComputingSite, len(m.Transfers),
			100*m.QueueTransferFraction())
	}
}
