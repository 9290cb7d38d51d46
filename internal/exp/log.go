package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Log is an append-only JSONL file of R records that stays consistent
// across crashes: every Append is fsync'd before it returns, so after a
// crash or SIGKILL at worst the final line is torn, and OpenLog repairs
// that by truncating back to the last complete record. Rewrite replaces
// the contents atomically. The campaign checkpoint (Store) and
// campserve's job journal are both Logs; each keeps its own in-memory
// view of the records. A Log is not safe for concurrent use.
type Log[R any] struct {
	f *os.File
	// lines counts records physically in the file (superseded ones
	// included), so owners can tell how much a Rewrite would reclaim.
	lines int
}

// OpenLog opens (creating if needed) the log at path, passes every
// complete record to apply in file order, and positions the file for
// appending. check rejects a record that decodes but is incomplete. A
// torn or unreadable final line — the signature of a crash mid-append —
// is discarded and truncated away; a bad record elsewhere is an error
// naming the log as kind ("checkpoint", "journal"), since it means the
// file is not one of ours.
//
// When the call creates the file, the parent directory is fsync'd too:
// per-record Append fsyncs make the *contents* durable, but on
// journaling filesystems the directory entry itself is a separate piece
// of metadata — without the directory sync, a crash shortly after
// creation can lose the whole file even though every byte in it was
// synced.
func OpenLog[R any](path, kind string, check func(R) error, apply func(R)) (*Log[R], error) {
	_, statErr := os.Stat(path)
	creating := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if creating {
		syncDir(path)
	}
	l := &Log[R]{f: f}
	if err := l.replay(kind, check, apply); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

func (l *Log[R]) replay(kind string, check func(R) error, apply func(R)) error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return err
	}
	var valid int // offset just past the last complete, parseable record
	for valid < len(data) {
		nl := bytes.IndexByte(data[valid:], '\n')
		if nl < 0 {
			break // no trailing newline: a torn append, drop it
		}
		var rec R
		rerr := json.Unmarshal(data[valid:valid+nl+1], &rec)
		if rerr == nil {
			rerr = check(rec)
		}
		if rerr != nil {
			if valid+nl+1 == len(data) {
				break // the bad line is the file's last: torn append
			}
			return fmt.Errorf("%s %s: corrupt record at offset %d: %w", kind, l.f.Name(), valid, rerr)
		}
		valid += nl + 1
		l.lines++
		apply(rec)
	}
	if err := l.f.Truncate(int64(valid)); err != nil {
		return err
	}
	_, err = l.f.Seek(int64(valid), io.SeekStart)
	return err
}

// Lines returns the number of records physically in the file.
func (l *Log[R]) Lines() int { return l.lines }

// Append durably writes one record: marshal, write, fsync. The record is
// visible to a subsequent OpenLog as soon as Append returns.
func (l *Log[R]) Append(rec R) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if _, err := l.f.Write(b); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.lines++
	return nil
}

// Rewrite replaces the log's contents with recs, in order. The rewrite
// goes through AtomicWriteFile — temp file, fsync, rename, directory
// fsync — so a crash mid-rewrite leaves either the old file or the
// complete new one.
func (l *Log[R]) Rewrite(recs []R) error {
	var buf bytes.Buffer
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	path := l.f.Name()
	if err := AtomicWriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	// Swap the handle: the old descriptor still points at the unlinked
	// pre-rewrite inode, so appends through it would vanish.
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.lines = len(recs)
	return nil
}

// Close releases the underlying file.
func (l *Log[R]) Close() error { return l.f.Close() }

// AtomicWriteFile durably replaces path with data: the bytes land in a
// temporary file in the same directory, are fsync'd, and are renamed over
// path, so readers observe either the old file or the complete new one —
// never a partial write, even across a crash. The containing directory is
// fsync'd too, making the rename itself durable.
func AtomicWriteFile(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Directory fsync is best-effort: some filesystems reject it, and
	// the rename is already atomic — only its durability is at stake.
	syncDir(path)
	return nil
}

// syncDir fsyncs path's parent directory, making a just-created or
// just-renamed directory entry durable. Best-effort, like the rename
// sync in AtomicWriteFile: some filesystems reject directory fsync, and
// only durability — not consistency — is at stake.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
