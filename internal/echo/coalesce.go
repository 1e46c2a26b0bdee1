package echo

import (
	"net"
	"sync"
	"time"
)

const (
	// maxPending is how many accepted bytes a coalescer holds before Write
	// blocks — the backpressure a full socket would apply, moved up to
	// where the bytes wait.
	maxPending = 64 << 10
	// idleKeep is the largest buffer a coalescer keeps once its flusher
	// has gone idle; a burst's bigger buffers go back to the heap.
	idleKeep = 4 << 10
)

// coalescer sits between a subscriber's wire.Conn and its socket and turns
// the connection's per-message flushes into one write syscall per burst.
// Write only appends to a pending buffer and, when no flusher is running,
// spawns one; the flusher swaps the buffer out and writes it outside the
// lock, repeating until nothing is pending. Frames that arrive while a
// syscall is in flight leave together in the next one, and a lone message
// leaves at once. Every byte of the connection — handshake, format, trace
// and data frames, re-announcements — goes through the one buffer, so no
// frame can overtake another.
//
// Reads, deadlines and addresses pass straight through to the socket.
type coalescer struct {
	net.Conn
	closeTimeout time.Duration // bounds Close's final flush

	mu      sync.Mutex
	cond    sync.Cond // broadcast when pending drains, on error, on close, and when the flusher exits
	pending []byte    // accepted bytes not yet handed to the socket
	spare   []byte    // the last written buffer, reused as the next pending
	running bool      // a flusher goroutine is live
	closed  bool
	err     error // first write error; every later Write returns it

	flushFn func() // c.flush, bound once so spawning a flusher allocates nothing
}

func newCoalescer(nc net.Conn, closeTimeout time.Duration) *coalescer {
	c := &coalescer{Conn: nc, closeTimeout: closeTimeout}
	c.cond.L = &c.mu
	c.flushFn = c.flush
	return c
}

// Write accepts p for sending. It blocks while maxPending bytes are
// pending and returns the connection's first write error, if any, or
// net.ErrClosed after Close. A nil error means accepted, not yet written.
func (c *coalescer) Write(p []byte) (int, error) {
	c.mu.Lock()
	for c.err == nil && !c.closed && len(c.pending) >= maxPending {
		c.cond.Wait()
	}
	if err := c.err; err != nil {
		c.mu.Unlock()
		return 0, err
	}
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.pending = append(c.pending, p...)
	spawn := !c.running
	c.running = true
	c.mu.Unlock()
	if spawn {
		go c.flushFn()
	}
	return len(p), nil
}

// flush is the flusher: it writes everything pending, one swapped-out
// buffer per syscall, and exits once nothing is left or a write failed.
func (c *coalescer) flush() {
	c.mu.Lock()
	for c.err == nil && len(c.pending) > 0 {
		out := c.pending
		c.pending = c.spare[:0]
		c.mu.Unlock()
		_, err := c.Conn.Write(out)
		c.mu.Lock()
		c.spare = out[:0]
		if err != nil {
			c.err = err
		}
		c.cond.Broadcast()
	}
	if cap(c.spare) > idleKeep {
		c.spare = nil
	}
	if cap(c.pending) > idleKeep {
		c.pending = nil
	}
	c.running = false
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Close refuses further writes, waits for the flusher to send what Write
// accepted — under a write deadline of closeTimeout, so a peer that stopped
// reading cannot hold it — and then closes the socket. Writers blocked on a
// full buffer return net.ErrClosed. It returns the first write error, if
// any, since then some accepted bytes were never sent.
func (c *coalescer) Close() error {
	c.mu.Lock()
	c.closed = true
	c.cond.Broadcast()
	if c.running {
		_ = c.Conn.SetWriteDeadline(time.Now().Add(c.closeTimeout)) // a failure here surfaces as the flush's own error
		for c.running {
			c.cond.Wait()
		}
	}
	werr := c.err
	c.mu.Unlock()
	cerr := c.Conn.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
