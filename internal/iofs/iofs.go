// Package iofs is the durability layer every persistent artifact in the
// system goes through: fragstore cache files, serve spill checkpoints
// and sidecars, ildpvm -cachefile/-checkpoint saves, and flight-recorder
// bundles. It provides two things.
//
// First, an FS interface over the handful of filesystem operations those
// paths need, with an OS implementation whose WriteFile fsyncs before
// close, and an AtomicWriteFile helper implementing the
// write-temp-fsync-rename protocol: the destination is either the old
// bytes or the new bytes, never a torn mixture, and a failure partway
// never clobbers a good existing file.
//
// Second, Faulty, a deterministic seed-driven fault-injecting FS that
// draws from internal/faultinject's shared Schedule: its splitmix64
// stream, seeded by Config.Seed, decides, at every filesystem operation, whether to fail it
// with ENOSPC, EIO, a torn write (a prefix reaches the disk and the call
// errors — the crash-mid-write model), a partial read (truncated bytes
// returned with a nil error — only a content checksum can catch it), or
// a rename failure. A fault schedule is a pure function of the seed, so
// a disk-chaos run is replayable, which is what lets the serve chaos
// soak demand typed degradation rather than "something broke".
package iofs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// FS is the filesystem surface the persistence paths use. All paths are
// host paths (absolute or cwd-relative), not fs.FS-rooted.
type FS interface {
	// ReadFile reads the named file.
	ReadFile(name string) ([]byte, error)
	// WriteFile writes data to the named file, creating it with perm if
	// needed, and durably flushes it before returning.
	WriteFile(name string, data []byte, perm fs.FileMode) error
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove removes the named file.
	Remove(name string) error
	// MkdirAll creates the named directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// Glob returns the names matching pattern, as filepath.Glob.
	Glob(pattern string) ([]string, error)
}

// OS is the real filesystem. Its WriteFile differs from os.WriteFile in
// one way: it fsyncs the file before closing, so a successful return
// means the bytes are durable, not merely in the page cache.
type OS struct{}

// ReadFile implements FS.
func (OS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

// WriteFile implements FS with an fsync before close.
func (OS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(name string) error { return os.Remove(name) }

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// Glob implements FS.
func (OS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

// Default returns fsys, or OS when fsys is nil — the idiom callers use
// to make an FS field optional.
func Default(fsys FS) FS {
	if fsys == nil {
		return OS{}
	}
	return fsys
}

// TempSuffix is appended to a destination name to form AtomicWriteFile's
// scratch file, which lives in the same directory so the final rename
// stays within one filesystem.
const TempSuffix = ".tmp"

// AtomicWriteFile writes data to name via the write-temp-fsync-rename
// protocol: the bytes land in name+TempSuffix first (durably, via
// fsys.WriteFile), then replace name in a single rename. On any error
// the temp file is removed (best effort) and the previous contents of
// name — if it existed — are untouched. Readers therefore observe
// either the complete old file or the complete new file, never a torn
// prefix, even across a crash or an injected fault.
func AtomicWriteFile(fsys FS, name string, data []byte, perm fs.FileMode) error {
	fsys = Default(fsys)
	tmp := name + TempSuffix
	if err := fsys.WriteFile(tmp, data, perm); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("iofs: atomic write %s: %w", name, err)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("iofs: atomic write %s: %w", name, err)
	}
	return nil
}

// Sentinel errors for the injectable fault kinds. Injected faults wrap
// these (and *Fault), so callers classify with errors.Is/errors.As.
var (
	// ErrNoSpace is the injected ENOSPC: the write is refused before any
	// byte reaches the disk.
	ErrNoSpace = errors.New("iofs: no space left on device (injected)")
	// ErrIO is the injected EIO on a read or write.
	ErrIO = errors.New("iofs: input/output error (injected)")
	// ErrTorn is the injected torn write: a prefix of the data reached
	// the disk before the error — the crash-mid-write model.
	ErrTorn = errors.New("iofs: torn write (injected)")
	// ErrRename is the injected rename failure.
	ErrRename = errors.New("iofs: rename failed (injected)")
)
