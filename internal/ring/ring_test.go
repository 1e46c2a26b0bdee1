package ring

import (
	"sync"
	"testing"
)

// rec is a test record: seq is the ring's stamp, writer and n say who put it
// and in which order.
type rec struct {
	seq       uint64
	writer, n int
}

func newRing(capacity int) *Ring[rec] {
	return New(capacity, func(r *rec) *uint64 { return &r.seq })
}

// TestSnapshotOrderAfterWrap: once the ring wraps, slot order is no longer
// arrival order, yet Snapshot returns the last cap records oldest first; each
// Put past capacity reports and counts the record it displaced.
func TestSnapshotOrderAfterWrap(t *testing.T) {
	r := newRing(4)
	for i := 1; i <= 10; i++ {
		if displaced := r.Put(&rec{n: i}); displaced != (i > 4) {
			t.Fatalf("Put #%d displaced = %v, want %v", i, displaced, i > 4)
		}
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("total = %d dropped = %d, want 10 and 6", r.Total(), r.Dropped())
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("retained %d records, want 4", len(got))
	}
	for i, g := range got {
		if want := 7 + i; g.seq != uint64(want) || g.n != want {
			t.Errorf("record %d = seq %d n %d, want %d", i, g.seq, g.n, want)
		}
	}
}

// TestKeepNotCounted: Keep retains records under the sequence numbers another
// ring stamped and counts toward Total, but what it displaces is not a drop;
// Dropped counts only what Put displaced.
func TestKeepNotCounted(t *testing.T) {
	src, tail := newRing(8), newRing(2)
	for i := 1; i <= 5; i++ {
		p := &rec{n: i}
		src.Put(p)
		tail.Keep(p)
	}
	if tail.Total() != 5 || tail.Dropped() != 0 {
		t.Fatalf("after 5 Keeps into 2 slots: total = %d dropped = %d, want 5 and 0", tail.Total(), tail.Dropped())
	}
	if got := tail.Snapshot(); len(got) != 2 || got[0].seq != 4 || got[1].seq != 5 {
		t.Fatalf("kept = %+v, want src seqs 4 and 5", got)
	}
	if !tail.Put(&rec{n: 6}) || tail.Dropped() != 1 || tail.Total() != 6 {
		t.Fatalf("Put over a kept record: dropped = %d total = %d, want 1 and 6", tail.Dropped(), tail.Total())
	}
	if src.Total() != 5 || src.Dropped() != 0 {
		t.Fatalf("src: total = %d dropped = %d, want 5 and 0", src.Total(), src.Dropped())
	}
}

// TestConcurrentPutAndSnapshot: writers never block each other and a reader
// snapshotting meanwhile never sees a duplicate, unstamped or mispaired
// record — each writer's records appear in the order it put them.
func TestConcurrentPutAndSnapshot(t *testing.T) {
	const writers, perWriter, capacity = 4, 2000, 64
	r := newRing(capacity)
	check := func(snap []rec) {
		last := make(map[int]int, writers)
		for i, x := range snap {
			if x.seq == 0 {
				t.Errorf("unstamped record at %d: %+v", i, x)
				return
			}
			if i > 0 && x.seq <= snap[i-1].seq {
				t.Errorf("seq %d at %d follows %d: duplicate or unsorted", x.seq, i, snap[i-1].seq)
				return
			}
			if n, ok := last[x.writer]; ok && x.n <= n {
				t.Errorf("writer %d: record n=%d (seq %d) after n=%d", x.writer, x.n, x.seq, n)
				return
			}
			last[x.writer] = x.n
		}
		if len(snap) > capacity {
			t.Errorf("snapshot holds %d records, ring has %d slots", len(snap), capacity)
		}
	}

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
				check(r.Snapshot())
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < perWriter; n++ {
				r.Put(&rec{writer: w, n: n})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	const total = writers * perWriter
	if r.Total() != total || r.Dropped() != total-capacity {
		t.Fatalf("total = %d dropped = %d, want %d and %d", r.Total(), r.Dropped(), total, total-capacity)
	}
	final := r.Snapshot()
	if len(final) != capacity {
		t.Fatalf("final snapshot holds %d records, want %d", len(final), capacity)
	}
	check(final)
}
