package sim

// Server models a FIFO queueing station with a fixed number of service
// slots (e.g. a disk, a storage controller CPU, or a metadata server).
// Jobs are served in submission order; each job occupies one slot for its
// service time and then invokes its completion callback.
//
// The Server tracks utilization and queueing statistics so that model
// layers can report busy time, queue depth, and wait times without extra
// bookkeeping. Busy time and wait time are both integrals over time,
// of the slots in service and of the jobs queued, so a queued job
// carries no arrival time. Once the server has drained, the area under
// the queue is exactly the sum of every job's wait (the operational
// identity behind Little's law).
type Server struct {
	eng *Engine
	// capacity is the number of jobs that can be in service at once.
	// It and inService are int32 so that a drive's server, one per
	// drive in a full center, fits in 96 bytes.
	capacity  int32
	inService int32
	queue     Queue[serverJob]

	// statistics
	Completed uint64
	BusyTime  Time // slot-occupancy integrated over time (sum over slots)
	// WaitTime is the queue length integrated over time: the time every
	// job has spent queued, up to the last submit, completion or
	// statistics read. At a drained server it is the sum of the jobs'
	// waits; mid-run it also counts what still-queued jobs have waited.
	WaitTime Time
	MaxQueue int

	lastChange Time
}

// maxDrainedRing is the most queue slots a drained Server keeps. A
// queue that empties out of a deeper burst drops its ring and segments
// and grows new ones if another burst comes.
const maxDrainedRing = 1024

// serverJob is one queued job: 16 bytes, so a queue segment of them
// fills the 4 KiB size class.
type serverJob struct {
	service Time
	done    func()
}

// NewServer creates a server with the given number of parallel service
// slots attached to engine eng. capacity must be >= 1. The second
// argument, a label, is not kept: nothing reads it.
func NewServer(eng *Engine, _ string, capacity int) *Server {
	s := new(Server)
	s.Init(eng, capacity)
	return s
}

// Init attaches a zero Server to engine eng with the given number of
// service slots (at least 1). It readies a server held by value inside
// a larger record, such as a drive, without allocating; the server
// must not be copied afterwards, because its scheduled events point to
// it.
func (s *Server) Init(eng *Engine, capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	s.eng, s.capacity = eng, int32(capacity)
}

// Engine returns the engine the server is attached to.
func (s *Server) Engine() *Engine { return s.eng }

// QueueLen returns the number of jobs waiting (not in service).
func (s *Server) QueueLen() int { return s.queue.Len() }

// Submit enqueues a job with the given service time. done (may be nil) is
// invoked when the job completes. Service times <= 0 are served as
// zero-duration jobs (still pass through the queue discipline).
func (s *Server) Submit(service Time, done func()) {
	if service < 0 {
		service = 0
	}
	s.accumulate()
	job := serverJob{service: service, done: done}
	if s.inService < s.capacity {
		s.start(job)
		return
	}
	s.queue.Push(job)
	if s.queue.Len() > s.MaxQueue {
		s.MaxQueue = s.queue.Len()
	}
}

// start puts job in service. Its completion is scheduled as data — the
// server and done ride in the event — so no closure is allocated.
func (s *Server) start(job serverJob) {
	s.inService++
	s.eng.schedule(s.eng.Now()+job.service, job.done, s)
}

// finish completes a job: the engine calls it when the job's service
// time has elapsed, with the job's done.
func (s *Server) finish(done func()) {
	s.accumulate()
	s.inService--
	s.Completed++
	if next, ok := s.queue.Pop(); ok {
		s.start(next)
		if s.queue.Len() == 0 && s.queue.slots() > maxDrainedRing {
			// A drained burst leaves its queue holding its peak depth; a
			// model kept alive after its run (to read counters) should
			// not pin it.
			s.queue = Queue[serverJob]{}
		}
	}
	if done != nil {
		done()
	}
}

// accumulate brings BusyTime and WaitTime up to now. Every change to
// inService or to the queue's length comes after a call, so both
// integrands are constant since lastChange.
func (s *Server) accumulate() {
	now := s.eng.Now()
	dt := int64(now - s.lastChange)
	s.BusyTime += Time(dt * int64(s.inService))
	s.WaitTime += Time(dt * int64(s.queue.Len()))
	s.lastChange = now
}

// Utilization returns the mean fraction of service slots busy over the
// interval [0, now]. It is 0 when no time has elapsed.
func (s *Server) Utilization() float64 {
	s.accumulate()
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(s.BusyTime) / (float64(now) * float64(s.capacity))
}

// MeanWait returns WaitTime up to now over every job submitted. At a
// drained server that is the mean queueing delay of all its jobs.
func (s *Server) MeanWait() Time {
	s.accumulate()
	jobs := s.Completed + uint64(s.inService) + uint64(s.queue.Len())
	if jobs == 0 {
		return 0
	}
	return Time(uint64(s.WaitTime) / jobs)
}
