package workload

import (
	"fmt"
	"math"

	"panrucio/internal/panda"
	"panrucio/internal/records"
	"panrucio/internal/rucio"
	"panrucio/internal/simtime"
	"panrucio/internal/topology"
)

// Config tunes the generator. Zero fields take the documented defaults.
type Config struct {
	// InitialDatasets seeds the catalog before any task arrives (default 400).
	InitialDatasets int
	// DatasetMeanFiles is the mean file count per dataset (default 60).
	// Dataset size bounds task width: jobs within a task process disjoint
	// file subsets, so a task can have at most files/files-per-job jobs.
	DatasetMeanFiles int
	// FileSizeMu/FileSizeSigma parameterize LogNormal file sizes in bytes
	// (defaults ln(3 GB), 1.0).
	FileSizeMu, FileSizeSigma float64
	// MaxReplicas is the maximum initial replica count per dataset (default 3).
	MaxReplicas int
	// UserTaskInterval is the mean inter-arrival of user tasks (default 240s).
	UserTaskInterval simtime.VTime
	// ProdTaskInterval is the mean inter-arrival of production tasks (default 600s).
	ProdTaskInterval simtime.VTime
	// UserJobsMean / ProdJobsMean are mean jobs per task (defaults 18, 45).
	UserJobsMean, ProdJobsMean int
	// MaxFilesPerJob bounds the per-job input count (default 4).
	MaxFilesPerJob int
	// ZipfExponent shapes dataset popularity (default 1.1).
	ZipfExponent float64
}

// Scaled returns the config with defaults filled and the arrival volume
// multiplied by f: task inter-arrival intervals shrink by f (rates grow)
// and the seeded catalog grows by f so dataset popularity keeps its shape.
// f <= 0 or 1 only fills defaults. The default scenario sits near 1/20 of
// the paper's production volume, so f = 20 reproduces paper scale.
func (c Config) Scaled(f float64) Config {
	c.fill()
	if f <= 0 || f == 1 {
		return c
	}
	c.InitialDatasets = int(float64(c.InitialDatasets)*f + 0.5)
	c.UserTaskInterval = scaleInterval(c.UserTaskInterval, f)
	c.ProdTaskInterval = scaleInterval(c.ProdTaskInterval, f)
	return c
}

// scaleInterval divides a mean inter-arrival time by f, clamping at one
// tick so extreme scales stay valid.
func scaleInterval(v simtime.VTime, f float64) simtime.VTime {
	scaled := simtime.VTime(float64(v) / f)
	if scaled < 1 {
		return 1
	}
	return scaled
}

func (c *Config) fill() {
	if c.InitialDatasets == 0 {
		c.InitialDatasets = 400
	}
	if c.DatasetMeanFiles == 0 {
		c.DatasetMeanFiles = 60
	}
	if c.FileSizeMu == 0 {
		c.FileSizeMu = math.Log(3e9)
	}
	if c.FileSizeSigma == 0 {
		c.FileSizeSigma = 1.0
	}
	if c.MaxReplicas == 0 {
		c.MaxReplicas = 3
	}
	if c.UserTaskInterval == 0 {
		c.UserTaskInterval = 240
	}
	if c.ProdTaskInterval == 0 {
		c.ProdTaskInterval = 600
	}
	if c.UserJobsMean == 0 {
		c.UserJobsMean = 18
	}
	if c.ProdJobsMean == 0 {
		c.ProdJobsMean = 45
	}
	if c.MaxFilesPerJob == 0 {
		c.MaxFilesPerJob = 4
	}
	if c.ZipfExponent == 0 {
		c.ZipfExponent = 1.1
	}
}

// Generator owns the dataset pool and the task-arrival loops.
type Generator struct {
	eng  *simtime.Engine
	grid *topology.Grid
	ruc  *rucio.Rucio
	pan  *panda.System
	rng  *simtime.RNG
	cfg  Config

	datasets  []string
	dsWeights []float64

	placementSites   []string
	placementWeights []float64

	// Counters.
	UserTasks int64
	ProdTasks int64
	Errors    int64
}

// Start seeds the catalog and installs the arrival loops on the engine.
func Start(eng *simtime.Engine, grid *topology.Grid, ruc *rucio.Rucio, pan *panda.System, rng *simtime.RNG, cfg Config) *Generator {
	cfg.fill()
	g := &Generator{eng: eng, grid: grid, ruc: ruc, pan: pan, rng: rng, cfg: cfg}
	for _, s := range grid.Sites() {
		var w float64
		switch s.Tier {
		case topology.Tier0:
			w = 10
		case topology.Tier1:
			w = 6
		case topology.Tier2:
			w = 1.5
		default:
			w = 0.1
		}
		g.placementSites = append(g.placementSites, s.Name)
		g.placementWeights = append(g.placementWeights, w)
	}
	g.seedCatalog()
	g.arrivalLoop(cfg.UserTaskInterval, g.submitUser)
	g.arrivalLoop(cfg.ProdTaskInterval, g.submitProd)
	return g
}

// seedCatalog creates the initial dataset pool with tier-weighted replica
// placement and Zipf popularity weights.
func (g *Generator) seedCatalog() {
	for i := 0; i < g.cfg.InitialDatasets; i++ {
		scope := "data25"
		if i%3 == 0 {
			scope = "mc25"
		}
		name := fmt.Sprintf("%s.13p6TeV.%08d.physics_Main.DAOD.r%05d", scope, 100000+i, i)
		if _, err := g.ruc.Catalog().CreateDataset(scope, name, ""); err != nil {
			g.Errors++
			continue
		}
		nfiles := 1 + g.rng.Poisson(float64(g.cfg.DatasetMeanFiles-1))
		for f := 0; f < nfiles; f++ {
			size := int64(g.rng.LogNormal(g.cfg.FileSizeMu, g.cfg.FileSizeSigma))
			if size < 1e6 {
				size = 1e6
			}
			file := &rucio.FileInfo{
				LFN:        fmt.Sprintf("%s._%06d.pool.root", name, f),
				Scope:      scope,
				Dataset:    name,
				ProdDBlock: name,
				Size:       size,
			}
			if err := g.ruc.Catalog().AddFile(file); err != nil {
				g.Errors++
				continue
			}
		}
		// Place 1..MaxReplicas complete replicas at tier-weighted sites.
		nrep := 1 + g.rng.Intn(g.cfg.MaxReplicas)
		placed := map[string]bool{}
		ds, _ := g.ruc.Catalog().Dataset(name)
		for r := 0; r < nrep; r++ {
			site := g.placementSites[g.rng.Choice(g.placementWeights)]
			if placed[site] {
				continue
			}
			placed[site] = true
			rse, ok := g.grid.PrimaryRSE(site)
			if !ok {
				continue
			}
			for _, file := range ds.Files {
				g.ruc.Catalog().SetReplica(file, rse.Name, rucio.ReplicaAvailable)
			}
		}
		g.datasets = append(g.datasets, name)
		g.dsWeights = append(g.dsWeights, 1/math.Pow(float64(i+1), g.cfg.ZipfExponent))
	}
}

func (g *Generator) arrivalLoop(mean simtime.VTime, fn func()) {
	var tick func()
	tick = func() {
		fn()
		g.eng.After(g.rng.VExp(mean), tick)
	}
	g.eng.After(g.rng.VExp(mean), tick)
}

// pickDatasets draws 1-2 distinct datasets by popularity.
func (g *Generator) pickDatasets() []string {
	if len(g.datasets) == 0 {
		return nil
	}
	first := g.rng.Choice(g.dsWeights)
	out := []string{g.datasets[first]}
	if g.rng.Bool(0.25) {
		second := g.rng.Choice(g.dsWeights)
		if second != first {
			out = append(out, g.datasets[second])
		}
	}
	return out
}

func (g *Generator) jobCount(mean int) int {
	n := 1 + g.rng.Poisson(float64(mean-1))
	// Heavy tail: a few percent of tasks are very large.
	if g.rng.Bool(0.03) {
		n *= 5
	}
	return n
}

func (g *Generator) submitUser() {
	ds := g.pickDatasets()
	if ds == nil {
		return
	}
	_, err := g.pan.SubmitTask(panda.TaskSpec{
		Label:         records.LabelUser,
		InputDatasets: ds,
		JobCount:      g.jobCount(g.cfg.UserJobsMean),
		FilesPerJob:   1 + g.rng.Intn(g.cfg.MaxFilesPerJob),
		OutputScope:   "user.out",
	})
	if err != nil {
		g.Errors++
		return
	}
	g.UserTasks++
}

func (g *Generator) submitProd() {
	ds := g.pickDatasets()
	if ds == nil {
		return
	}
	_, err := g.pan.SubmitTask(panda.TaskSpec{
		Label:         records.LabelManaged,
		InputDatasets: ds,
		JobCount:      g.jobCount(g.cfg.ProdJobsMean),
		FilesPerJob:   1 + g.rng.Intn(g.cfg.MaxFilesPerJob),
		OutputScope:   "mc25.out",
	})
	if err != nil {
		g.Errors++
		return
	}
	g.ProdTasks++
}

// DatasetNames exposes the generated pool (read-only).
func (g *Generator) DatasetNames() []string { return g.datasets }
