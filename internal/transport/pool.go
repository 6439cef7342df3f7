package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// trainResult is the outcome of one pooled training job.
type trainResult struct {
	// blob is the bundle as the registry stored it, version its version.
	blob    []byte
	version int
	err     error
}

// trainJob is one queued training request; the goroutine that submitted
// it (a connection goroutine for client trains, a scheduler dispatch
// goroutine for drift-triggered retrains) waits on done.
type trainJob struct {
	req  trainRequest
	done chan trainResult

	// anon, when set, is the already-anonymized user id of a
	// scheduler-initiated job (the drift monitor only ever sees
	// pseudonyms, so there is no raw id to anonymize).
	anon string
	// recent bounds the job to each context's newest windows (0: all).
	recent int
}

// trainTestHook, when set, runs inside a worker at the start of every job
// — tests use it to hold workers busy and drive the queue to saturation.
var trainTestHook func(req trainRequest)

// workerPool bounds how many training jobs the server runs at once.
// Training is the server's only CPU-heavy request (a kernel ridge
// regression solve per context model); without a bound, every concurrent
// train request spawned its own solve and a burst of retraining phones
// could seize the whole host. The pool runs a fixed set of workers over a
// bounded queue; when the queue is full, submission fails fast and the
// server answers TypeBusy instead of accepting unbounded work.
//
// Cheap requests (enroll, authenticate, stats, model fetches) never touch
// the pool, so the server keeps serving them while every worker is busy.
type workerPool struct {
	jobs chan trainJob
	wg   sync.WaitGroup

	workers int
	// inFlight counts jobs currently executing in a worker.
	inFlight atomic.Int64
	// rejected counts submissions refused because the queue was full.
	rejected atomic.Uint64
	// completed counts jobs that finished (successfully or not).
	completed atomic.Uint64

	closeOnce sync.Once
}

// newWorkerPool starts workers goroutines draining a queue of depth slots.
// run executes one job and must send exactly one result on job.done.
func newWorkerPool(workers, depth int, run func(trainJob) trainResult) *workerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if depth <= 0 {
		depth = 2 * workers
	}
	p := &workerPool{
		jobs:    make(chan trainJob, depth),
		workers: workers,
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				p.inFlight.Add(1)
				if hook := trainTestHook; hook != nil {
					hook(job.req)
				}
				res := run(job)
				p.inFlight.Add(-1)
				p.completed.Add(1)
				job.done <- res
			}
		}()
	}
	return p
}

// trySubmit enqueues the job without blocking. It returns false — and
// counts a rejection — when the queue is full.
func (p *workerPool) trySubmit(job trainJob) bool {
	select {
	case p.jobs <- job:
		return true
	default:
		p.rejected.Add(1)
		return false
	}
}

// queued reports jobs waiting in the queue (not yet picked up).
func (p *workerPool) queued() int { return len(p.jobs) }

// close stops the workers after draining already-accepted jobs, so every
// submitted job still receives its result.
func (p *workerPool) close() {
	p.closeOnce.Do(func() { close(p.jobs) })
	p.wg.Wait()
}
