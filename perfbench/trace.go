package main

import (
	"sync"
	"time"

	"plb/internal/task"
	"plb/internal/transport"
	"plb/internal/transport/socktrans"
)

// captureLen bounds the frames per kind the traced run keeps for the
// codec measurement.
const captureLen = 256

// sentFrame is one accepted Send awaiting its delivery window.
type latency struct {
	at time.Time // when the frame became readable
	us float64
}

type sentFrame struct {
	at   time.Time
	kind transport.Kind
}

// tracker joins sends to deliveries across every traced endpoint of a
// run. A connection carries one sender's frames to one receiver in
// order, and loopback delivery keeps order too, so the frames of each
// (from, to) pair arrive first in, first out: the oldest outstanding
// send of a pair is the one a delivered frame answers.
type tracker struct {
	mu        sync.Mutex
	out       map[[2]int32][]sentFrame
	lat       []latency
	unmatched int64
	kindSent  [transport.KindMax]int64
	captured  map[transport.Kind][]transport.Message
}

func newTracker() *tracker {
	return &tracker{
		out:      make(map[[2]int32][]sentFrame),
		captured: make(map[transport.Kind][]transport.Message),
	}
}

func (tk *tracker) sent(m transport.Message, at time.Time) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	key := [2]int32{m.From, m.To}
	tk.out[key] = append(tk.out[key], sentFrame{at: at, kind: m.Kind})
	tk.kindSent[m.Kind]++
	if c := tk.captured[m.Kind]; len(c) < captureLen {
		cp := m
		cp.Tasks = append([]task.Task(nil), m.Tasks...)
		cp.Blob = append([]byte(nil), m.Blob...)
		tk.captured[m.Kind] = append(c, cp)
	}
}

// withdraw forgets the latest send of m's pair, which Send dropped.
// Only the goroutine driving the sender sends on a pair, so no later
// send of the pair can have been registered in between.
func (tk *tracker) withdraw(m transport.Message) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	key := [2]int32{m.From, m.To}
	if q := tk.out[key]; len(q) > 0 {
		tk.out[key] = q[:len(q)-1]
	}
	tk.kindSent[m.Kind]--
}

// delivered matches a frame that became readable at to; a pair whose
// oldest send has another kind lost frames on the way, and those sends
// are discarded as unmatched.
func (tk *tracker) delivered(m transport.Message, to int32, at time.Time) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	key := [2]int32{m.From, to}
	q := tk.out[key]
	for len(q) > 0 && q[0].kind != m.Kind {
		q = q[1:]
		tk.unmatched++
	}
	if len(q) == 0 {
		tk.unmatched++
		return
	}
	tk.lat = append(tk.lat, latency{at, float64(at.Sub(q[0].at).Nanoseconds()) / 1e3})
	tk.out[key] = q[1:]
}

// timedTrans is the transport shim: a transport.Transport around one
// socket endpoint that times Send and Deliver from outside and reports
// every accepted send and every delivered frame to the run's tracker.
// Its counters are written only by the goroutine driving the endpoint.
type timedTrans struct {
	*socktrans.Trans
	tk    *tracker
	local []int32

	sendNs, sends       int64
	deliverNs, delivers int64
}

var _ transport.Transport = (*timedTrans)(nil)

func newTimedTrans(tr *socktrans.Trans, tk *tracker, local []int32) *timedTrans {
	return &timedTrans{Trans: tr, tk: tk, local: local}
}

func (s *timedTrans) Send(m transport.Message) {
	dropped := s.Trans.Stats().Dropped
	// The send is registered before the frame can reach its receiver's
	// goroutine, and withdrawn if Send drops it — Send decides a drop
	// synchronously, so a changed counter means this frame was dropped.
	t := time.Now()
	s.tk.sent(m, t)
	t1 := time.Now()
	s.Trans.Send(m)
	s.sendNs += time.Since(t1).Nanoseconds()
	s.sends++
	if s.Trans.Stats().Dropped != dropped {
		s.tk.withdraw(m)
	}
}

func (s *timedTrans) Deliver() {
	t := time.Now()
	s.Trans.Deliver()
	at := time.Now()
	s.deliverNs += at.Sub(t).Nanoseconds()
	s.delivers++
	for _, id := range s.local {
		for _, m := range s.Trans.Inbox(int(id)) {
			s.tk.delivered(m, id, at)
		}
	}
}

// latencies summarizes the send→Inbox latencies of frames that became
// readable in [from, to), and counts the unmatched sends of the run.
func (tk *tracker) latencies(from, to time.Time) (timing, int64) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	var us []float64
	for _, l := range tk.lat {
		if !l.at.Before(from) && l.at.Before(to) {
			us = append(us, l.us)
		}
	}
	return summarize(us, to.Sub(from)), tk.unmatched
}
