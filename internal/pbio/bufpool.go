package pbio

import "sync"

// Scratch buffer pool shared by the hot encode/frame paths. The wire package
// encodes outgoing records into these buffers and reads frame bodies too
// large for its read buffer into them, so steady-state message traffic
// allocates no per-message buffers.
//
// Buffers whose capacity grew beyond maxPooledBuffer are dropped instead of
// pooled, so one oversized frame cannot pin megabytes for the lifetime of
// the process.

const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer returns a pooled buffer resized to length n (contents
// unspecified). Return it with PutBuffer when done; the slice must not be
// used afterwards.
func GetBuffer(n int) *[]byte {
	bp := bufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// PutBuffer recycles a buffer obtained from GetBuffer. A nil pointer is a
// no-op; oversized buffers are dropped rather than pooled.
func PutBuffer(bp *[]byte) {
	if bp == nil || cap(*bp) > maxPooledBuffer {
		return
	}
	bufPool.Put(bp)
}
