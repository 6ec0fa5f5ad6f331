package rucio

import (
	"fmt"
	"sort"

	"panrucio/internal/topology"
)

// FileInfo describes one catalogued file (the smallest DID unit).
type FileInfo struct {
	LFN        string
	Scope      string
	Dataset    string // owning dataset DID name
	ProdDBlock string // block-level data identifier (paper Algorithm 1)
	Size       int64

	// replicas lists the file's copies in insertion order. It lives on the
	// file so the catalog's replica operations never hash the LFN.
	replicas []replicaEntry
}

// FileName builds a file's LFN in one allocation: fmt's "%s._%0*d%s" of
// the owning dataset, the file's number n (non-negative) zero-padded to
// digits (at most 20), and ext.
func FileName(dataset string, n int64, digits int, ext string) string {
	var buf [20]byte
	i := len(buf)
	for ; n > 0 || i > len(buf)-digits; n /= 10 {
		i--
		buf[i] = byte('0' + n%10)
	}
	return dataset + "._" + string(buf[i:]) + ext
}

// Dataset groups files for bulk operations.
type Dataset struct {
	Name  string
	Scope string
	Files []*FileInfo
}

// ReplicaState is the lifecycle state of one file copy at one RSE.
type ReplicaState int

// Replica states.
const (
	ReplicaCopying ReplicaState = iota
	ReplicaAvailable
)

// replicaEntry is one file copy in the compact per-file replica list: a
// catalog RSE id plus the state, 4 bytes and pointer-free. Files have a
// handful of replicas, so a linear scan beats a string-keyed map and the
// GC never walks the entries.
type replicaEntry struct {
	rse   uint16
	state uint8
}

// Catalog is the Rucio namespace: files, datasets, replicas.
// Single-goroutine, like the rest of the DES.
type Catalog struct {
	files    map[string]struct{} // every accepted LFN, which AddFile keeps unique
	datasets map[string]*Dataset

	// RSE name interning for replicaEntry, ids in first-seen order (a grid
	// has at most a few hundred RSEs, far under the uint16 ceiling). New
	// registers the grid's RSEs first, so id i is the grid's RSE i.
	rseIDs   map[string]uint16
	rseNames []string
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		files:    make(map[string]struct{}),
		datasets: make(map[string]*Dataset),
		rseIDs:   make(map[string]uint16),
	}
}

// rseID interns an RSE name.
func (c *Catalog) rseID(rse string) uint16 {
	if id, ok := c.rseIDs[rse]; ok {
		return id
	}
	id := uint16(len(c.rseNames))
	c.rseIDs[rse] = id
	c.rseNames = append(c.rseNames, rse)
	return id
}

// CreateDataset registers an empty dataset DID. Creating an existing
// dataset is an error.
func (c *Catalog) CreateDataset(scope, name string) (*Dataset, error) {
	if _, dup := c.datasets[name]; dup {
		return nil, fmt.Errorf("rucio: dataset %q exists", name)
	}
	d := &Dataset{Name: name, Scope: scope}
	c.datasets[name] = d
	return d, nil
}

// AddFile attaches a new file to an existing dataset. LFNs are globally
// unique. The dataset is checked first, so a file rejected for its
// dataset leaves its LFN free; the uniqueness check is one insert into the
// LFN set, which hashes the LFN once, and a set that did not grow held it.
func (c *Catalog) AddFile(f *FileInfo) error {
	if f.LFN == "" {
		return fmt.Errorf("rucio: empty LFN")
	}
	d, ok := c.datasets[f.Dataset]
	if !ok {
		return fmt.Errorf("rucio: dataset %q not found for file %q", f.Dataset, f.LFN)
	}
	n := len(c.files)
	c.files[f.LFN] = struct{}{}
	if len(c.files) == n {
		return fmt.Errorf("rucio: file %q exists", f.LFN)
	}
	d.Files = append(d.Files, f)
	return nil
}

// Dataset resolves a dataset name.
func (c *Catalog) Dataset(name string) (*Dataset, bool) {
	d, ok := c.datasets[name]
	return d, ok
}

// NumFiles reports the catalogued file count.
func (c *Catalog) NumFiles() int { return len(c.files) }

// NumDatasets reports the catalogued dataset count.
func (c *Catalog) NumDatasets() int { return len(c.datasets) }

// SetReplica records a copy of f at an RSE in the given state, upgrading
// any existing entry.
func (c *Catalog) SetReplica(f *FileInfo, rse string, st ReplicaState) {
	id := c.rseID(rse)
	for i := range f.replicas {
		if f.replicas[i].rse == id {
			f.replicas[i].state = uint8(st)
			return
		}
	}
	f.replicas = append(f.replicas, replicaEntry{rse: id, state: uint8(st)})
}

// HasReplica reports whether an available replica of f exists at rse.
func (c *Catalog) HasReplica(f *FileInfo, rse string) bool {
	id, ok := c.rseIDs[rse]
	if !ok {
		return false
	}
	for _, e := range f.replicas {
		if e.rse == id {
			return e.state == uint8(ReplicaAvailable)
		}
	}
	return false
}

// EachAvailableReplica calls fn with the catalog RSE id of every available
// replica of f, in insertion order. For a catalog built by New the id is
// the RSE's index in the grid's RSEs(). The intended use is
// order-insensitive accumulation, e.g. summing per-site input bytes with
// one replica-list walk per file instead of one HasReplica probe per
// (file, site) pair.
func (c *Catalog) EachAvailableReplica(f *FileInfo, fn func(rse int)) {
	for _, e := range f.replicas {
		if e.state == uint8(ReplicaAvailable) {
			fn(int(e.rse))
		}
	}
}

// FileRSEs returns the RSEs holding an available replica of f, sorted for
// determinism.
func (c *Catalog) FileRSEs(f *FileInfo) []string {
	var out []string
	for _, e := range f.replicas {
		if e.state == uint8(ReplicaAvailable) {
			out = append(out, c.rseNames[e.rse])
		}
	}
	sort.Strings(out)
	return out
}

// DatasetCompleteAt reports whether every file of the dataset has an
// available replica at the RSE.
func (c *Catalog) DatasetCompleteAt(ds *Dataset, rse string) bool {
	if len(ds.Files) == 0 {
		return false
	}
	for _, f := range ds.Files {
		if !c.HasReplica(f, rse) {
			return false
		}
	}
	return true
}

// DatasetSites returns the sites whose primary disk RSE holds the complete
// dataset, sorted for determinism.
func (c *Catalog) DatasetSites(ds *Dataset, grid *topology.Grid) []string {
	var out []string
	for _, s := range grid.Sites() {
		rse, ok := grid.PrimaryRSE(s.Name)
		if !ok {
			continue
		}
		if c.DatasetCompleteAt(ds, rse.Name) {
			out = append(out, s.Name)
		}
	}
	sort.Strings(out)
	return out
}
