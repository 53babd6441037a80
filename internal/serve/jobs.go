package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rtdvs/internal/experiment"
)

// JobState is the lifecycle of an asynchronous sweep job.
type JobState string

const (
	JobQueued    JobState = "queued"
	JobRunning   JobState = "running"
	JobDone      JobState = "done"
	JobFailed    JobState = "failed"
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// JobStatus is the JSON view of a job returned by GET /v1/jobs/{id}.
type JobStatus struct {
	ID     string   `json:"id"`
	Status JobState `json:"status"`
	// Error explains failed and cancelled states; for cancelled sweeps it
	// includes the partial progress (jobs completed of total).
	Error string `json:"error,omitempty"`
	// Sweep is the result, present once Status is "done".
	Sweep *experiment.Sweep `json:"sweep,omitempty"`
}

// job is one queued sweep; the server's workers drive it through its
// lifecycle.
type job struct {
	id  string
	cfg experiment.Config

	mu     sync.Mutex
	status JobStatus
}

func (j *job) setState(s JobState, err error, sw *experiment.Sweep) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Status.Terminal() {
		return
	}
	j.status.Status = s
	if err != nil {
		j.status.Error = err.Error()
	}
	j.status.Sweep = sw
}

// Status returns a snapshot safe to serialize.
func (j *job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// jobStore indexes jobs by ID. IDs are a simple process-local sequence:
// they only need to be unique per server, and deterministic IDs keep
// tests and logs readable.
type jobStore struct {
	mu   sync.Mutex
	seq  atomic.Int64
	jobs map[string]*job
}

func newJobStore() *jobStore {
	return &jobStore{jobs: map[string]*job{}}
}

// newJob returns a queued job under a fresh ID; the store holds it only
// once add registers it.
func (s *jobStore) newJob(cfg experiment.Config) *job {
	j := &job{id: fmt.Sprintf("job-%d", s.seq.Add(1)), cfg: cfg}
	j.status = JobStatus{ID: j.id, Status: JobQueued}
	return j
}

func (s *jobStore) add(j *job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.mu.Unlock()
}

func (s *jobStore) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// each calls f on every job.
func (s *jobStore) each(f func(*job)) {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	for _, j := range js {
		f(j)
	}
}
