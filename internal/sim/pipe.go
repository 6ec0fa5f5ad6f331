package sim

import (
	"panrucio/internal/metastore"
	"panrucio/internal/records"
)

// ingestBatch is how many puts the ingest pipe gathers before a goroutine
// applies them. Larger batches hand off less often but leave more puts for
// a drain to apply on the event loop; measured as sim.Run wall time on 2
// vCPUs (DESIGN.md, "The ingest pipe"), the gain flattens past 1,024.
const ingestBatch = 1024

// Put kinds, the tags of a batch's put order.
const (
	putJob uint8 = iota
	putFile
	putTransfer
)

// batch is a run of puts in put order: order tags each put with its kind,
// and the typed slices hold the records, copied by value.
type batch struct {
	order []uint8
	jobs  []records.JobRecord
	files []records.FileRecord
	evs   []records.TransferEvent
}

// apply puts the batch into the store in put order and empties it,
// keeping its capacity for the next fill. The store copies every record
// into its own arenas, so the batch's slots are free to refill.
func (b *batch) apply(s *metastore.Store) {
	var j, f, e int
	for _, k := range b.order {
		switch k {
		case putJob:
			s.PutJob(&b.jobs[j])
			j++
		case putFile:
			s.PutFile(&b.files[f])
			f++
		default:
			s.PutTransfer(&b.evs[e])
			e++
		}
	}
	b.order, b.jobs, b.files, b.evs = b.order[:0], b.jobs[:0], b.files[:0], b.evs[:0]
}

// ingestPipe takes the store's puts off the event loop. The simulator's
// record sinks copy each record into the filling batch; a full batch is
// applied through the store's Put methods by a goroutine of its own while
// the event loop fills the other batch. At most one batch is in flight, so
// the store keeps a single writer at a time and receives the puts in the
// order the sinks made them. drain is the one read barrier: after it, the
// store holds every put made so far and no goroutine of the pipe touches
// it.
type ingestPipe struct {
	store *metastore.Store
	fill  *batch      // filled by the event loop
	spare *batch      // nil while it is being applied
	done  chan *batch // hands the applied batch back
}

func newIngestPipe(store *metastore.Store) *ingestPipe {
	return &ingestPipe{store: store, fill: &batch{}, spare: &batch{}, done: make(chan *batch, 1)}
}

func (p *ingestPipe) putJob(j *records.JobRecord) {
	p.fill.jobs = append(p.fill.jobs, *j)
	p.added(putJob)
}

func (p *ingestPipe) putFile(f *records.FileRecord) {
	p.fill.files = append(p.fill.files, *f)
	p.added(putFile)
}

func (p *ingestPipe) putTransfer(ev *records.TransferEvent) {
	p.fill.evs = append(p.fill.evs, *ev)
	p.added(putTransfer)
}

// added tags the put just copied into the filling batch and, once the
// batch is full, hands it to a goroutine that applies it — after the batch
// in flight has landed, so puts reach the store in order.
func (p *ingestPipe) added(kind uint8) {
	p.fill.order = append(p.fill.order, kind)
	if len(p.fill.order) < ingestBatch {
		return
	}
	p.wait()
	b := p.fill
	p.fill, p.spare = p.spare, nil
	go func() {
		b.apply(p.store)
		p.done <- b
	}()
}

// wait blocks until the batch in flight, if any, has been applied.
func (p *ingestPipe) wait() {
	if p.spare == nil {
		p.spare = <-p.done
	}
}

// drain waits for the batch in flight, then applies the partial batch on
// the calling goroutine. When it returns the store holds exactly the puts
// made before the call and is quiescent until the next full batch ships.
func (p *ingestPipe) drain() {
	p.wait()
	p.fill.apply(p.store)
}
