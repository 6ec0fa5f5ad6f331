package workload

import (
	"testing"

	"panrucio/internal/netsim"
	"panrucio/internal/panda"
	"panrucio/internal/records"
	"panrucio/internal/rucio"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

func harness(seed int64, horizon simtime.VTime) (*simtime.Engine, *topology.Grid, *rucio.Rucio, *panda.System, *simtime.RNG, *[]*records.JobRecord) {
	eng := simtime.NewEngine(0, horizon)
	grid := topology.Default(topology.DefaultSpec{})
	root := simtime.NewRNG(seed)
	net := netsim.New(eng, grid, root.Split("net"), netsim.Options{})
	ruc := rucio.New(eng, grid, net, root.Split("rucio"), rucio.Options{}, nil)
	var jobs []*records.JobRecord
	pan := panda.NewSystem(eng, grid, ruc, root.Split("panda"), panda.Options{},
		func(j *records.JobRecord) { cp := *j; jobs = append(jobs, &cp) }, nil) // borrowed: keep a copy
	return eng, grid, ruc, pan, root.Split("workload"), &jobs
}

func TestSeedCatalogShape(t *testing.T) {
	eng, grid, ruc, pan, rng, _ := harness(1, simtime.Hour)
	g := Start(eng, grid, ruc, pan, rng, Config{InitialDatasets: 50})
	if len(g.DatasetNames()) != 50 {
		t.Fatalf("datasets = %d", len(g.DatasetNames()))
	}
	if ruc.Catalog().NumDatasets() < 50 {
		t.Error("catalog missing datasets")
	}
	// Every dataset has at least one complete replica somewhere.
	for _, name := range g.DatasetNames() {
		ds, ok := ruc.Catalog().Dataset(name)
		if !ok || len(ds.Files) == 0 {
			t.Fatalf("dataset %s empty", name)
		}
		if sites := ruc.Catalog().DatasetSites(ds, grid); len(sites) == 0 {
			t.Errorf("dataset %s has no complete replica", name)
		}
	}
}

func TestArrivalsSubmitTasks(t *testing.T) {
	eng, grid, ruc, pan, rng, jobs := harness(2, 12*simtime.Hour)
	g := Start(eng, grid, ruc, pan, rng, Config{
		InitialDatasets:  40,
		UserTaskInterval: 600,
		ProdTaskInterval: 1200,
	})
	eng.Run()
	if g.UserTasks == 0 || g.ProdTasks == 0 {
		t.Fatalf("user=%d prod=%d tasks", g.UserTasks, g.ProdTasks)
	}
	if g.UserTasks <= g.ProdTasks {
		t.Errorf("user tasks (%d) should outnumber production (%d) at these rates", g.UserTasks, g.ProdTasks)
	}
	if pan.SubmittedJobs == 0 {
		t.Fatal("no jobs submitted")
	}
	if len(*jobs) == 0 {
		t.Fatal("no jobs completed in 12h")
	}
	if g.Errors != 0 {
		t.Errorf("generator errors: %d", g.Errors)
	}
}

func TestPopularityIsSkewed(t *testing.T) {
	eng, grid, ruc, pan, rng, _ := harness(3, 0)
	g := Start(eng, grid, ruc, pan, rng, Config{InitialDatasets: 100})
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		for _, ds := range g.pickDatasets() {
			counts[ds]++
		}
	}
	first := counts[g.DatasetNames()[0]]
	last := counts[g.DatasetNames()[99]]
	if first < 5*last {
		t.Errorf("popularity not Zipf-skewed: first=%d last=%d", first, last)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.InitialDatasets != 400 || c.UserTaskInterval != 240 || c.MaxFilesPerJob != 4 {
		t.Errorf("defaults: %+v", c)
	}
}
