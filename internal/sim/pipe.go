package sim

import (
	"time"

	"panrucio/internal/metastore"
	"panrucio/internal/records"
)

// ingestBatch is how many puts the ingest pipe gathers before it hands
// them to the applier. Larger batches hand off less often but leave more
// puts for a drain to apply on the event loop; measured as sim.Run wall
// time on 2 vCPUs (DESIGN.md, "The ingest pipe"), the gain flattens past
// 1,024.
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

// ingestQueue is how many full batches may wait for, or be in, the
// applier at once. With one, the event loop stalled on the batch in flight
// whenever a put burst outran the applier; measured on 2 vCPUs (DESIGN.md,
// "The ingest pipe"), sim.Run's wall time is flat from 2 to 8 while its
// blocked hand-offs keep falling, and 4 takes most of that fall.
const ingestQueue = 4

// ingestPipe takes the store's puts off the event loop. The simulator's
// record sinks copy each record into the filling batch; a full batch joins
// a FIFO of at most ingestQueue batches, which one long-lived goroutine
// applies through the store's Put methods while the event loop fills the
// next. One applier taking batches in queue order keeps the store's single
// writer and hands it the puts in the order the sinks made them. drain is
// the one read barrier: after it, the store holds every put made so far
// and the applier is idle until the next full batch. close ends the
// applier.
type ingestPipe struct {
	store  *metastore.Store
	fill   *batch      // filled by the event loop
	free   []*batch    // applied batches back on the event loop
	queued int         // batches handed to the applier and not yet back
	todo   chan *batch // full batches, in put order, to the applier
	done   chan *batch // applied batches, back to the event loop
}

func newIngestPipe(store *metastore.Store) *ingestPipe {
	// Each channel holds at most the ingestQueue batches the applier has,
	// so neither side ever blocks on a send.
	p := &ingestPipe{
		store: store,
		fill:  &batch{},
		todo:  make(chan *batch, ingestQueue),
		done:  make(chan *batch, ingestQueue),
	}
	go p.apply()
	return p
}

// apply is the applier: it puts each queued batch into the store, in
// queue order, and hands it back, until close.
func (p *ingestPipe) apply() {
	for b := range p.todo {
		b.apply(p.store)
		p.done <- b
	}
	close(p.done)
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
// batch is full, queues it for the applier and takes an empty one. The
// event loop blocks only when ingestQueue batches are already queued.
func (p *ingestPipe) added(kind uint8) {
	p.fill.order = append(p.fill.order, kind)
	if len(p.fill.order) < ingestBatch {
		return
	}
	if p.queued == ingestQueue {
		p.reclaim()
	}
	p.todo <- p.fill
	p.queued++
	mIngestBatches.Inc()
	if n := len(p.free); n > 0 {
		p.fill, p.free = p.free[n-1], p.free[:n-1]
	} else {
		p.fill = &batch{}
	}
}

// reclaim takes back one applied batch, waiting for the applier if none
// is back yet; only a wait that blocks is timed.
func (p *ingestPipe) reclaim() {
	var b *batch
	select {
	case b = <-p.done:
	default:
		t0 := time.Now()
		b = <-p.done
		mIngestWaitSeconds.ObserveSince(t0)
	}
	p.queued--
	p.free = append(p.free, b)
}

// drain waits for every queued batch, then applies the partial batch on
// the calling goroutine. When it returns the store holds exactly the puts
// made before the call and is quiescent until the next full batch ships.
func (p *ingestPipe) drain() {
	for p.queued > 0 {
		p.reclaim()
	}
	p.fill.apply(p.store)
}

// close drains the pipe and waits for the applier to exit.
func (p *ingestPipe) close() {
	p.drain()
	close(p.todo)
	for range p.done {
	}
}
