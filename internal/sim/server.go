package sim

// Server models a FIFO queueing station with a fixed number of service
// slots (e.g. a disk, a storage controller CPU, or a metadata server).
// Jobs are served in submission order; each job occupies one slot for its
// service time and then invokes its completion callback.
//
// The Server tracks utilization and queueing statistics so that model
// layers can report busy time, queue depth, and wait times without extra
// bookkeeping.
type Server struct {
	eng *Engine
	//simlint:allow test-only-export NewServer's name parameter is fixed by bench/probes.go, which calls NewServer(eng, "probe", 1)
	name string // diagnostic label, shown by %+v and debuggers
	// capacity is the number of jobs that can be in service at once.
	capacity int

	inService int
	queue     Queue[serverJob]

	// statistics
	Completed uint64
	BusyTime  Time // slot-occupancy integrated over time (sum over slots)
	WaitTime  Time // total time jobs spent queued before service
	MaxQueue  int

	lastChange Time
}

// maxDrainedRing is the most queue slots a drained Server keeps. A
// queue that empties out of a deeper burst drops its ring and segments
// and grows new ones if another burst comes.
const maxDrainedRing = 1024

type serverJob struct {
	arrive  Time
	service Time
	done    func()
}

// NewServer creates a server with the given number of parallel service
// slots attached to engine eng. capacity must be >= 1.
func NewServer(eng *Engine, name string, capacity int) *Server {
	s := &Server{name: name}
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
	s.eng, s.capacity = eng, capacity
}

// QueueLen returns the number of jobs waiting (not in service).
func (s *Server) QueueLen() int { return s.queue.Len() }

// Submit enqueues a job with the given service time. done (may be nil) is
// invoked when the job completes. Service times <= 0 are served as
// zero-duration jobs (still pass through the queue discipline).
func (s *Server) Submit(service Time, done func()) {
	if service < 0 {
		service = 0
	}
	s.accumulateBusy()
	job := serverJob{arrive: s.eng.Now(), service: service, done: done}
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
	now := s.eng.Now()
	s.WaitTime += now - job.arrive
	s.eng.schedule(now+job.service, job.done, s)
}

// finish completes a job: the engine calls it when the job's service
// time has elapsed, with the job's done.
func (s *Server) finish(done func()) {
	s.accumulateBusy()
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

func (s *Server) accumulateBusy() {
	now := s.eng.Now()
	s.BusyTime += Time(int64(now-s.lastChange) * int64(s.inService))
	s.lastChange = now
}

// Utilization returns the mean fraction of service slots busy over the
// interval [0, now]. It is 0 when no time has elapsed.
func (s *Server) Utilization() float64 {
	s.accumulateBusy()
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	return float64(s.BusyTime) / (float64(now) * float64(s.capacity))
}

// MeanWait returns the mean queueing delay of jobs that entered service.
func (s *Server) MeanWait() Time {
	served := s.Completed + uint64(s.inService)
	if served == 0 {
		return 0
	}
	return Time(uint64(s.WaitTime) / served)
}
