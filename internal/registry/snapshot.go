package registry

import (
	"errors"
	"fmt"
	"io"
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

// saveSnapshotLocked rewrites the snapshot file (write-temp-then-rename, so
// a crash leaves either the old table or the new one, never a mix — a torn
// tail in the temp file is discarded with it).
func (s *Server) saveSnapshotLocked() error {
	if s.snapshotPath == "" {
		return nil
	}
	tmp := s.snapshotPath + ".tmp"
	w, err := spool.Create(tmp)
	if err != nil {
		return err
	}
	fps := make([]uint64, 0, len(s.table))
	for fp := range s.table {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		rec := pbio.NewRecord(snapshotFormat).
			MustSet("fp", pbio.Uint(fp)).
			MustSet("blob", pbio.Str(string(s.table[fp].blob)))
		if err := w.Append(rec); err != nil {
			_ = w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, s.snapshotPath)
}

// loadSnapshot populates the table from the snapshot file, if present.
func (s *Server) loadSnapshot() error {
	r, err := spool.Open(s.snapshotPath)
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
			return fmt.Errorf("registry: snapshot %s: %w", s.snapshotPath, err)
		}
		fpv, _ := rec.Get("fp")
		blobv, _ := rec.Get("blob")
		if err := s.put(fpv.Uint64(), []byte(blobv.Strval()), false); err != nil {
			return fmt.Errorf("registry: snapshot %s: %w", s.snapshotPath, err)
		}
	}
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
