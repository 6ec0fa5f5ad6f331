package rucio

import (
	"fmt"
	"testing"
	"testing/quick"

	"panrucio/internal/topology"
)

func TestCatalogDatasetLifecycle(t *testing.T) {
	c := NewCatalog()
	if _, err := c.CreateDataset("user", "user.ds1", "cont1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateDataset("user", "user.ds1", ""); err == nil {
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
	if got := c.ContainerDatasets("cont1"); len(got) != 1 || got[0] != "user.ds1" {
		t.Errorf("container listing = %v", got)
	}
	if c.NumFiles() != 1 || c.NumDatasets() != 1 {
		t.Error("counts wrong")
	}
	if _, ok := c.File("f1"); !ok {
		t.Error("File lookup failed")
	}
}

func TestReplicaStates(t *testing.T) {
	c := NewCatalog()
	c.CreateDataset("user", "d", "")
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
	c.DropReplica(f, "RSE_A")
	if c.HasReplica(f, "RSE_A") {
		t.Error("dropped replica still present")
	}
	c.DropReplica(&FileInfo{LFN: "ghost"}, "RSE_A") // never added; must not panic
}

func TestDatasetCompleteness(t *testing.T) {
	c := NewCatalog()
	c.CreateDataset("user", "d", "")
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
	empty, _ := c.CreateDataset("user", "empty", "")
	if c.DatasetCompleteAt(empty, "R") {
		t.Error("empty dataset must never be complete")
	}
}

func TestDatasetSites(t *testing.T) {
	grid := topology.Default(topology.DefaultSpec{})
	c := NewCatalog()
	c.CreateDataset("user", "d", "")
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
		c.CreateDataset("s", "d", "")
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
