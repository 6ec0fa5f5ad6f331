package rucio

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"panrucio/internal/topology"
)

func TestCatalogDatasetLifecycle(t *testing.T) {
	c := NewCatalog()
	if _, err := c.CreateDataset("user", "user.ds1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDataset("user", "user.ds1"); err == nil {
		t.Error("duplicate dataset accepted")
	}
	f := &FileInfo{LFN: "f1", Scope: "user", Dataset: "user.ds1", ProdDBlock: "user.ds1", Size: 100}
	if err := c.AddFile(f); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile(f); err == nil {
		t.Error("duplicate LFN accepted")
	}
	if err := c.AddFile(&FileInfo{LFN: "f2", Dataset: "nope"}); err == nil {
		t.Error("file with missing dataset accepted")
	}
	if err := c.AddFile(&FileInfo{Dataset: "user.ds1"}); err == nil {
		t.Error("empty LFN accepted")
	}
	ds, ok := c.Dataset("user.ds1")
	if !ok || len(ds.Files) != 1 || ds.TotalBytes() != 100 {
		t.Fatalf("dataset state wrong: %+v", ds)
	}
	if c.NumFiles() != 1 || c.NumDatasets() != 1 {
		t.Error("counts wrong")
	}
}

func TestReplicaStates(t *testing.T) {
	c := NewCatalog()
	c.CreateDataset("user", "d")
	f := &FileInfo{LFN: "f", Dataset: "d", Size: 1}
	c.AddFile(f)
	if c.HasReplica(f, "RSE_A") {
		t.Error("phantom replica")
	}
	c.SetReplica(f, "RSE_A", ReplicaCopying)
	if c.HasReplica(f, "RSE_A") {
		t.Error("copying replica reported available")
	}
	c.SetReplica(f, "RSE_A", ReplicaAvailable)
	if !c.HasReplica(f, "RSE_A") {
		t.Error("available replica not found")
	}
	c.SetReplica(f, "RSE_B", ReplicaAvailable)
	rses := c.FileRSEs(f)
	if len(rses) != 2 || rses[0] != "RSE_A" || rses[1] != "RSE_B" {
		t.Errorf("FileRSEs = %v, want sorted available pair", rses)
	}
}

func TestDatasetCompleteness(t *testing.T) {
	c := NewCatalog()
	c.CreateDataset("user", "d")
	for i := 0; i < 3; i++ {
		c.AddFile(&FileInfo{LFN: fmt.Sprintf("f%d", i), Dataset: "d", Size: 10})
	}
	ds, _ := c.Dataset("d")
	if c.DatasetCompleteAt(ds, "R") {
		t.Error("empty-replica dataset reported complete")
	}
	c.SetReplica(ds.Files[0], "R", ReplicaAvailable)
	c.SetReplica(ds.Files[1], "R", ReplicaAvailable)
	if c.DatasetCompleteAt(ds, "R") {
		t.Error("partial dataset reported complete")
	}
	if got := c.DatasetBytesAt(ds, "R"); got != 20 {
		t.Errorf("DatasetBytesAt = %d, want 20", got)
	}
	c.SetReplica(ds.Files[2], "R", ReplicaAvailable)
	if !c.DatasetCompleteAt(ds, "R") {
		t.Error("complete dataset reported incomplete")
	}
	empty, _ := c.CreateDataset("user", "empty")
	if c.DatasetCompleteAt(empty, "R") {
		t.Error("empty dataset must never be complete")
	}
}

func TestDatasetSites(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	c := NewCatalog()
	c.CreateDataset("user", "d")
	f := &FileInfo{LFN: "f", Dataset: "d", Size: 10}
	c.AddFile(f)
	cern, _ := grid.PrimaryRSE("CERN-PROD")
	bnl, _ := grid.PrimaryRSE("BNL-ATLAS")
	c.SetReplica(f, cern.Name, ReplicaAvailable)
	c.SetReplica(f, bnl.Name, ReplicaAvailable)
	ds, _ := c.Dataset("d")
	sites := c.DatasetSites(ds, grid)
	if len(sites) != 2 || sites[0] != "BNL-ATLAS" || sites[1] != "CERN-PROD" {
		t.Errorf("DatasetSites = %v", sites)
	}
}

// Property: after setting replicas at k distinct RSEs, FileRSEs returns
// exactly those RSEs sorted.
func TestFileRSEsProperty(t *testing.T) {
	prop := func(ids []uint8) bool {
		c := NewCatalog()
		c.CreateDataset("s", "d")
		f := &FileInfo{LFN: "f", Dataset: "d", Size: 1}
		c.AddFile(f)
		want := map[string]bool{}
		for _, id := range ids {
			rse := fmt.Sprintf("RSE%03d", id)
			c.SetReplica(f, rse, ReplicaAvailable)
			want[rse] = true
		}
		got := c.FileRSEs(f)
		if len(got) != len(want) {
			return false
		}
		for i, rse := range got {
			if !want[rse] {
				return false
			}
			if i > 0 && got[i-1] >= rse {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFileNameMatchesSprintf holds the LFN builder to the three fmt forms
// it replaces, background's "%s._%06d.root", the seeded catalog's
// "%s._%06d.pool.root" and panda's output "%s._%010d.root", over random
// dataset names and non-negative file numbers.
func TestFileNameMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ns := []int64{0, 1, 9, 10, 999_999, 1_000_000, 999_999_999, 1_000_000_000, 6_580_000_001, 9_999_999_999, 10_000_000_000, math.MaxInt64}
	for range 500 {
		ns = append(ns, rng.Int63n(100), rng.Int63n(1e11), rng.Int63n(math.MaxInt64))
	}
	forms := []struct {
		digits int
		ext    string
		format string
	}{
		{6, ".root", "%s._%06d.root"},
		{6, ".pool.root", "%s._%06d.pool.root"},
		{10, ".root", "%s._%010d.root"},
	}
	for _, n := range ns {
		name := make([]rune, rng.Intn(40))
		for i := range name {
			name[i] = []rune("abcXYZ019._-/é✓")[rng.Intn(15)]
		}
		ds := string(name)
		for _, f := range forms {
			if got, want := FileName(ds, n, f.digits, f.ext), fmt.Sprintf(f.format, ds, n); got != want {
				t.Fatalf("FileName(%q, %d, %d, %q) = %q, want %q", ds, n, f.digits, f.ext, got, want)
			}
		}
	}
}

var nameSink string

// TestFileNameAllocatesOnce pins the builder at one allocation, the name.
func TestFileNameAllocatesOnce(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		nameSink = FileName("user.out.100001.out", 6_580_000_001, 10, ".root")
	})
	if allocs != 1 {
		t.Fatalf("FileName allocates %v times, want 1", allocs)
	}
}
