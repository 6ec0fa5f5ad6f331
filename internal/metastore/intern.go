package metastore

// internTable assigns dense uint32 symbols to the store's labels — the
// low-cardinality strings records repeat — and owns their canonical
// backing. The join labels (scope, dataset, proddblock) get symbols, so a
// candidate bucket is keyed by its task, its file name and three 4-byte
// symbols; computing-site, site, RSE and activity strings collapse onto one
// backing array regardless of how the producer built them (the corruption
// layer, in particular, rewrites labels with fresh allocations).
//
// The LFN is not interned: it names one file, and every record of a file
// already carries its producer's one name, so an entry per file would
// collapse nothing and cost a probe and a table slot per file.
//
// The table is store-global and written only on the single-threaded
// ingest path; no query probes it.
type internTable struct {
	ids  map[string]uint32
	strs []string
}

func newInternTable() *internTable {
	return &internTable{ids: make(map[string]uint32)}
}

// sym returns the symbol for s, assigning the next dense id on first sight.
// Symbols are assigned in first-ingest order, so they are deterministic for
// a given put stream and independent of the shard count.
func (t *internTable) sym(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	return id
}

// canon returns the canonical backing for s, interning it if new. Storing
// the canonical string in a record lets duplicate producer-side backings be
// collected.
func (t *internTable) canon(s string) string {
	return t.strs[t.sym(s)]
}

// reset empties the table for store reuse while keeping the map's
// capacity. The backing strings are released: a sweep worker's store must
// not pin one scenario's dataset names through the next (the string-leak
// fix this table's lifecycle exists for).
func (t *internTable) reset() {
	clear(t.ids)
	clear(t.strs)
	t.strs = t.strs[:0]
}

// size reports the number of interned strings.
func (t *internTable) size() int { return len(t.strs) }

// bucketKey keys a candidate bucket: Algorithm 1's join key minus file
// size (which Exact checks per row and RM1/RM2 relax) scoped to one JEDI
// task, with the file name as the producer gave it and the three join
// labels as symbols.
type bucketKey struct {
	task                       int64
	lfn                        string
	scope, dataset, prodDBlock uint32
}
