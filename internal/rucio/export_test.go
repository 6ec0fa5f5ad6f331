package rucio

import "sort"

// ChooseSource runs chooseSource for a destination site name and returns
// the chosen RSE's name.
func (r *Rucio) ChooseSource(f *FileInfo, dstSite string) (string, bool) {
	id, ok := r.chooseSource(f, r.grid.SiteIndex(dstSite))
	if !ok {
		return "", false
	}
	return r.catalog.rseNames[id], true
}

// Files lists every catalogued file, sorted by LFN.
func (c *Catalog) Files() []*FileInfo {
	out := make([]*FileInfo, 0, len(c.files))
	for _, f := range c.files {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LFN < out[j].LFN })
	return out
}
