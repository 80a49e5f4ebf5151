package snapshot

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"priview/internal/core"
)

// File is the write surface of a snapshot temp file.
type File interface {
	io.Writer
	// Sync flushes the file contents to stable storage.
	Sync() error
	Close() error
	// Name returns the file's path.
	Name() string
}

// FS abstracts the filesystem operations the durability layer needs.
// Production uses OS (the real filesystem); the chaos package wraps an
// FS to inject short writes, failed renames and bit flips, proving the
// detection and fallback paths work.
type FS interface {
	MkdirAll(dir string, perm os.FileMode) error
	// CreateTemp creates a new unique file in dir for the atomic write
	// protocol (see os.CreateTemp for the pattern syntax).
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs the directory itself, making a completed rename
	// durable (without it a crash can roll the directory entry back).
	SyncDir(dir string) error
}

// OS is the real-filesystem FS.
type OS struct{}

func (OS) MkdirAll(dir string, perm os.FileMode) error { return os.MkdirAll(dir, perm) }

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) ReadFile(name string) ([]byte, error)       { return os.ReadFile(name) }
func (OS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// WriteFile writes the synopsis to path as a v2 snapshot using the
// atomic protocol: serialize into a temp file in the same directory,
// fsync it, rename it over the target, then fsync the directory. A
// crash at any point leaves either the old complete file or the new
// complete file — never a torn snapshot — and any torn temp remnant is
// ignored by loads and cleaned up on the next write.
func WriteFile(fsys FS, path string, s *core.Synopsis) (err error) {
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: creating %s: %w", dir, err)
	}
	tmp, err := fsys.CreateTemp(dir, ".snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("snapshot: creating temp file: %w", err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			// Best-effort cleanup; the temp file is inert either way.
			_ = fsys.Remove(tmpName)
		}
	}()
	if err = Write(tmp, s); err != nil {
		//lint:ignore errdiscard the write error is what matters
		_ = tmp.Close()
		return err
	}
	if err = tmp.Sync(); err != nil {
		//lint:ignore errdiscard the sync error is what matters
		_ = tmp.Close()
		return fmt.Errorf("snapshot: syncing %s: %w", tmpName, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("snapshot: closing %s: %w", tmpName, err)
	}
	if err = fsys.Rename(tmpName, path); err != nil {
		return fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	if err = fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("snapshot: syncing directory %s: %w", dir, err)
	}
	return nil
}

// ReadFileFS loads and verifies the snapshot at path via fsys.
func ReadFileFS(fsys FS, path string) (*core.Synopsis, error) {
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: reading %s: %w", path, err)
	}
	return Decode(raw)
}

// FileSource is a Source over one snapshot file (v1 or v2), named by its
// path. Load reads, decodes and checks the file; it never quarantines
// it, since the file belongs to the operator.
type FileSource string

// Version implements Source: the file's size and modification time. A
// rewrite that keeps the size within one filesystem timestamp tick
// goes unseen until the file is touched again.
func (f FileSource) Version() (string, error) {
	fi, err := os.Stat(string(f))
	if err != nil {
		return "", fmt.Errorf("snapshot: %w", err)
	}
	return fmt.Sprintf("%d@%d", fi.Size(), fi.ModTime().UnixNano()), nil
}

// Load implements Source. The version is read before the file, so a
// rewrite racing the load shows up as a new version, never a missed one.
func (f FileSource) Load(check Check) (*LoadResult, error) {
	v, err := f.Version()
	if err != nil {
		return nil, err
	}
	syn, err := ReadFileFS(OS{}, string(f))
	if err != nil {
		return nil, err
	}
	if err := check(syn); err != nil {
		return nil, err
	}
	return &LoadResult{Synopsis: syn, Path: string(f), Version: v}, nil
}
