package registry

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/pbio"
	"repro/internal/spool"
)

// snapshotFormat is the self-describing spool schema for table persistence:
// one record per entry, the fingerprint plus the entry blob (byte-safe in a
// String field). Being an ordinary pbio format in an ordinary spool file,
// the snapshot is readable by any tool in this repo — including a future
// daemon whose entry layout evolved, via the usual morphing machinery.
var snapshotFormat = func() *pbio.Format {
	f, err := pbio.NewFormat("registry.entry", []pbio.Field{
		{Name: "fp", Kind: pbio.Unsigned, Size: 8},
		{Name: "blob", Kind: pbio.String},
	})
	if err != nil {
		panic(err)
	}
	return f
}()

// cursorFormat is the spool schema for a standby's replication cursor: which
// primary incarnation the standby's seqno belongs to, and the last stream
// seqno applied. One record, rewritten after every apply. A cursor that
// disagrees with the primary's instance is discarded (full resync), so at
// worst a stale cursor costs over-delivery of idempotent upserts, never a
// gap.
var cursorFormat = func() *pbio.Format {
	f, err := pbio.NewFormat("cluster.cursor", []pbio.Field{
		{Name: "instance", Kind: pbio.Unsigned, Size: 8},
		{Name: "seq", Kind: pbio.Unsigned, Size: 8},
	})
	if err != nil {
		panic(err)
	}
	return f
}()

// rewriteSpool replaces the spool file at path with the records emit appends
// (write-temp-then-rename, so a crash leaves either the old file or the new
// one, never a mix — a torn tail in the temp file is discarded with it).
func rewriteSpool(path string, emit func(w *spool.Writer) error) error {
	tmp := path + ".tmp"
	w, err := spool.Create(tmp)
	if err != nil {
		return err
	}
	if err := emit(w); err != nil {
		_ = w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readSpool hands every record of the spool file at path to fn. A missing
// file reads as empty, and a torn final frame — the expected shape of a crash
// mid-write — ends the file, dropping only the record being written.
func readSpool(path string, fn func(rec *pbio.Record) error) error {
	r, err := spool.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	defer r.Close()
	for {
		rec, err := r.Next()
		if err == io.EOF || errors.Is(err, spool.ErrTruncated) {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// saveSnapshotLocked rewrites the snapshot file.
func (s *Server) saveSnapshotLocked() error {
	if s.snapshotPath == "" {
		return nil
	}
	fps := make([]uint64, 0, len(s.table))
	for fp := range s.table {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	return rewriteSpool(s.snapshotPath, func(w *spool.Writer) error {
		for _, fp := range fps {
			rec := pbio.NewRecord(snapshotFormat).
				MustSet("fp", pbio.Uint(fp)).
				MustSet("blob", pbio.Str(string(s.table[fp].blob)))
			if err := w.Append(rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// loadSnapshot populates the table from the snapshot file, if present.
func (s *Server) loadSnapshot() error {
	err := readSpool(s.snapshotPath, func(rec *pbio.Record) error {
		fpv, _ := rec.Get("fp")
		blobv, _ := rec.Get("blob")
		return s.put(fpv.Uint64(), []byte(blobv.Strval()), false)
	})
	if err != nil {
		return fmt.Errorf("registry: snapshot %s: %w", s.snapshotPath, err)
	}
	return nil
}

// saveCursor persists the replication cursor beside the snapshot. A failure
// is logged, not fatal: the next apply rewrites it, and a lost cursor costs
// one full resync.
func (s *Server) saveCursor(instance, seq uint64) {
	if s.cursorPath == "" {
		return
	}
	err := rewriteSpool(s.cursorPath, func(w *spool.Writer) error {
		return w.Append(pbio.NewRecord(cursorFormat).
			MustSet("instance", pbio.Uint(instance)).
			MustSet("seq", pbio.Uint(seq)))
	})
	if err != nil {
		log.Printf("registry: cursor write: %v", err)
	}
}

// loadCursor returns the persisted cursor, or zeros when there is none or
// it cannot be read (zeros mean a full resync).
func (s *Server) loadCursor() (instance, seq uint64) {
	if s.cursorPath == "" {
		return 0, 0
	}
	err := readSpool(s.cursorPath, func(rec *pbio.Record) error {
		iv, _ := rec.Get("instance")
		sv, _ := rec.Get("seq")
		instance, seq = iv.Uint64(), sv.Uint64()
		return nil
	})
	if err != nil {
		log.Printf("registry: cursor read: %v", err)
		return 0, 0
	}
	return instance, seq
}

// SpoolHealthy reports whether table persistence is in a good state: nil
// when snapshots are disabled or the most recent snapshot write succeeded,
// the write's error otherwise. It is the /readyz spool probe: a daemon whose
// disk stopped accepting snapshots keeps serving resolutions from memory,
// but must not present as fully ready — a restart would lose mutations.
func (s *Server) SpoolHealthy() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.lastSnapErr
}
