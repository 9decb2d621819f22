package serve

import (
	"gadt/internal/obs"
)

// pool is the execution backend: a fixed set of workers running the
// pipeline phases (artifact build + trace) for new sessions. The
// debugging question/answer loop does NOT occupy a worker — it blocks
// on human answers for arbitrarily long — so pool capacity bounds only
// the CPU-heavy phase, and a fuel bomb can at worst pin one worker for
// one bounded trace.
type pool struct {
	jobs  chan func()
	done  chan struct{}
	queue *obs.Gauge
}

// newPool starts n workers with a queue of n*64 jobs.
func newPool(n int, reg *obs.Registry) *pool {
	p := &pool{
		jobs:  make(chan func(), n*64),
		done:  make(chan struct{}),
		queue: reg.Gauge("serve.pool.queue"),
	}
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *pool) worker() {
	for {
		select {
		case job := <-p.jobs:
			p.queue.Add(-1)
			job()
		case <-p.done:
			return
		}
	}
}

// submit enqueues a job; it reports false when the queue is full (the
// caller maps that onto a 429).
func (p *pool) submit(job func()) bool {
	select {
	case p.jobs <- job:
		p.queue.Add(1)
		return true
	default:
		return false
	}
}

// close stops the workers. Queued jobs that never ran are dropped; the
// sessions they belonged to are torn down by the manager.
func (p *pool) close() { close(p.done) }
