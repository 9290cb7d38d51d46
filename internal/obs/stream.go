package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"sync"
)

// StreamServer fans live epoch snapshots out to HTTP subscribers as
// server-sent events. It is the one deliberately cross-goroutine piece
// of the obs layer: Publish is called from the simulation goroutine
// (via Suite.OnSnapshot) while subscribers are served by net/http
// handler goroutines, so — unlike the Registry — it carries a mutex.
//
// Frames follow the SSE wire format: `event: <tag>` followed by a
// `data:` line holding the snapshot as one JSON object (the same shape
// writeSnapshotsJSONL emits). A bounded backlog is replayed to late
// subscribers so a client attaching after the run finished still sees
// the most recent epochs; slow subscribers drop frames rather than
// stalling the simulation.
type StreamServer struct {
	mu      sync.Mutex
	subs    []chan []byte // subscriber slice, not a map: iteration order must be deterministic
	backlog [][]byte
	closed  bool
	addr    string
}

const (
	streamBacklogCap = 32 // most recent frames replayed to new subscribers
	streamChanCap    = 64 // per-subscriber buffer before frames drop
)

// NewStreamServer returns an empty stream server.
func NewStreamServer() *StreamServer { return &StreamServer{} }

// Publish encodes one snapshot and fans it out. Never blocks: a
// subscriber whose buffer is full misses the frame. Safe on a nil
// receiver (records nothing).
func (s *StreamServer) Publish(snap Snapshot) {
	if s == nil {
		return
	}
	buf, err := json.Marshal(snap)
	if err != nil {
		return // snapshots are plain maps; cannot happen in practice
	}
	s.PublishFrame(snap.Tag, buf)
}

// sseFrame renders one SSE wire frame: `event: <tag>` + `data: <payload>`.
func sseFrame(event string, data []byte) []byte {
	frame := make([]byte, 0, len(data)+len(event)+24)
	frame = append(frame, "event: "...)
	frame = append(frame, event...)
	frame = append(frame, "\ndata: "...)
	frame = append(frame, data...)
	frame = append(frame, "\n\n"...)
	return frame
}

// PublishFrame fans one event with a pre-encoded JSON payload out to
// subscribers, appending it to the replay backlog. Never blocks; frames
// published after Close are dropped. Safe on a nil receiver.
func (s *StreamServer) PublishFrame(event string, data []byte) {
	if s == nil {
		return
	}
	frame := sseFrame(event, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.backlog = append(s.backlog, frame)
	if len(s.backlog) > streamBacklogCap {
		s.backlog = s.backlog[len(s.backlog)-streamBacklogCap:]
	}
	for _, ch := range s.subs {
		select {
		case ch <- frame:
		default: // subscriber too slow; drop the frame for them
		}
	}
}

// Close publishes one final frame (event "terminal") and shuts the
// stream down: every subscriber receives the terminal event (unless its
// buffer was already full) and then sees its channel closed, so Handler
// loops drain and return instead of blocking forever. Late subscribers
// still replay the backlog — terminal frame included — and get an
// immediate end-of-stream, which is how a finished job reports its
// history idempotently. Idempotent; safe on a nil receiver.
func (s *StreamServer) Close(data []byte) {
	if s == nil {
		return
	}
	frame := sseFrame("terminal", data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.backlog = append(s.backlog, frame)
	if len(s.backlog) > streamBacklogCap {
		s.backlog = s.backlog[len(s.backlog)-streamBacklogCap:]
	}
	for _, ch := range s.subs {
		select {
		case ch <- frame:
		default: // subscriber 64 frames behind; it still sees the close
		}
		close(ch)
	}
	s.subs = nil
}

// subscribe registers a new subscriber and returns its channel plus the
// backlog to replay first. On a closed stream the channel comes back
// already closed: the subscriber replays history and ends immediately.
func (s *StreamServer) subscribe() (chan []byte, [][]byte) {
	ch := make(chan []byte, streamChanCap)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		close(ch)
	} else {
		s.subs = append(s.subs, ch)
	}
	replay := make([][]byte, len(s.backlog))
	copy(replay, s.backlog)
	return ch, replay
}

// unsubscribe removes a subscriber channel.
func (s *StreamServer) unsubscribe(ch chan []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.subs {
		if c == ch {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			break
		}
	}
}

// Handler returns the SSE endpoint handler. It replays the backlog,
// then streams frames until the client disconnects.
func (s *StreamServer) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "streaming unsupported", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)

		ch, replay := s.subscribe()
		defer s.unsubscribe(ch)
		for _, frame := range replay {
			if _, err := w.Write(frame); err != nil {
				return
			}
		}
		fl.Flush()
		for {
			select {
			case frame, ok := <-ch:
				if !ok {
					return // stream closed server-side; terminal frame already sent
				}
				if _, err := w.Write(frame); err != nil {
					return
				}
				fl.Flush()
			case <-r.Context().Done():
				return
			}
		}
	})
}

// StartStream binds addr and serves the SSE endpoint at /metrics/stream
// in the background, mirroring cliutil.StartPprof: the listen is
// synchronous so failures surface immediately, but a bound port only
// degrades the run — logf gets a warning and the simulation proceeds
// without streaming. Returns the server and whether it is live.
func StartStream(addr string, logf func(format string, args ...any)) (*StreamServer, bool) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if logf != nil {
			logf("metrics stream disabled: %v", err)
		}
		return nil, false
	}
	s := NewStreamServer()
	mux := http.NewServeMux()
	mux.Handle("/metrics/stream", s.Handler())
	if logf != nil {
		logf("streaming epoch metrics at http://%s/metrics/stream", ln.Addr())
	}
	go func() {
		// Serve returns only on listener failure; the process exiting is
		// the normal shutdown path for a CLI-lifetime server.
		if err := http.Serve(ln, mux); err != nil && logf != nil {
			logf("metrics stream stopped: %v", err)
		}
	}()
	s.addr = ln.Addr().String()
	return s, true
}

// Addr returns the bound listen address ("" when started manually).
func (s *StreamServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.addr
}
