package rtos

import (
	"fmt"
	"math"
)

// Server is a polling periodic server for aperiodic and sporadic work
// (paper footnote 1: "aperiodic and sporadic tasks can be handled by a
// periodic or deferred server"; the same approach provisions processor
// time for non-real-time tasks).
//
// The server appears to the scheduler and the RT-DVS policy as an ordinary
// periodic task with period Ps and worst-case budget Cs, so all deadline
// and energy machinery applies unchanged. At each release it serves as
// much queued aperiodic work as fits in the budget; work beyond the budget
// waits for later server invocations.
type Server struct {
	jobQueue
}

// jobQueue is what both aperiodic servers keep: the kernel task that
// carries the server, its budget, the FIFO of incomplete jobs, the
// slices planned for the in-flight invocation and the retired jobs.
type jobQueue struct {
	kernel *Kernel
	id     TaskID
	budget float64

	queue     []*Job
	planned   []plannedSlice // work assigned to the in-flight invocation
	completed []*Job
}

// plannedSlice records how much of a job the current invocation serves.
type plannedSlice struct {
	job    *Job
	cycles float64
}

// Job is one unit of aperiodic work.
type Job struct {
	Name    string
	Arrival float64 // submission time (informational)
	Cycles  float64 // demand in ms at maximum frequency

	remaining float64
	// Done reports completion; CompletedAt is the server invocation
	// completion time that retired the job's last cycle.
	Done        bool
	CompletedAt float64
}

// ResponseTime returns completion time minus arrival (NaN while pending).
func (j *Job) ResponseTime() float64 {
	if !j.Done {
		return math.NaN()
	}
	return j.CompletedAt - j.Arrival
}

// NewServer registers a periodic server with the kernel. Budget and period
// are subject to the kernel's normal admission control, so the server's
// worst-case utilization is reserved and hard tasks keep their guarantees.
func NewServer(k *Kernel, name string, period, budget float64) (*Server, error) {
	s := &Server{}
	if err := s.register(k, name, period, budget, s.work); err != nil {
		return nil, err
	}
	return s, nil
}

// register adds the server to the kernel as a soft periodic task with
// period Ps and worst case Cs, whose demand at each release is work's
// plan and whose completion retires that plan.
func (q *jobQueue) register(k *Kernel, name string, period, budget float64, work WorkModel) error {
	if budget <= 0 || budget > period {
		return fmt.Errorf("rtos: server budget %v must be in (0, period %v]", budget, period)
	}
	q.kernel, q.budget = k, budget
	id, err := k.AddTask(TaskConfig{
		Name:       name,
		Period:     period,
		WCET:       budget,
		Work:       work,
		OnComplete: q.onComplete,
		Soft:       true,
	}, AddOptions{})
	if err != nil {
		return err
	}
	q.id = id
	return nil
}

// ID returns the server's kernel task id.
func (q *jobQueue) ID() TaskID { return q.id }

// enqueue appends a job arriving at the current kernel time.
func (q *jobQueue) enqueue(name string, cycles float64) (*Job, error) {
	if !(cycles > 0) {
		return nil, fmt.Errorf("rtos: job cycles must be positive, got %v", cycles)
	}
	j := &Job{Name: name, Arrival: q.kernel.Now(), Cycles: cycles, remaining: cycles}
	q.queue = append(q.queue, j)
	return j, nil
}

// Submit enqueues an aperiodic job at the current kernel time.
func (s *Server) Submit(name string, cycles float64) (*Job, error) {
	return s.enqueue(name, cycles)
}

// work plans one server invocation: serve queued jobs FIFO up to the
// budget. A polling server's unused budget is lost, so an empty queue
// yields a token demand that completes immediately.
func (s *Server) work(int) float64 {
	s.planned = s.planned[:0]
	left := s.budget
	var total float64
	for _, j := range s.queue {
		if left <= 1e-12 {
			break
		}
		c := math.Min(j.remaining, left)
		s.planned = append(s.planned, plannedSlice{job: j, cycles: c})
		left -= c
		total += c
	}
	if total <= 0 {
		return 1e-9 // nothing queued; yield the budget
	}
	return total
}

// onComplete retires the planned slices: every completion means the
// invocation's currently planned cycles have all executed.
func (q *jobQueue) onComplete(now float64, _ int) {
	for _, p := range q.planned {
		p.job.remaining -= p.cycles
		if p.job.remaining <= 1e-12 {
			p.job.Done = true
			p.job.CompletedAt = now
			q.completed = append(q.completed, p.job)
		}
	}
	q.planned = q.planned[:0]
	alive := q.queue[:0]
	for _, j := range q.queue {
		if !j.Done {
			alive = append(alive, j)
		}
	}
	q.queue = alive
}

// Pending returns the number of incomplete jobs.
func (q *jobQueue) Pending() int { return len(q.queue) }

// Completed returns the retired jobs in completion order.
func (q *jobQueue) Completed() []*Job { return append([]*Job(nil), q.completed...) }

// Backlog returns the total unserved cycles in the queue.
func (q *jobQueue) Backlog() float64 {
	var c float64
	for _, j := range q.queue {
		c += j.remaining
	}
	return c
}
